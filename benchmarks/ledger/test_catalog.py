"""The manifest, the span arithmetic and the A/A statistics.

Run with ``python -m pytest benchmarks/ledger`` (not part of the tier-1
suite: ``pytest.ini`` collects ``tests/`` only).
"""

from __future__ import annotations

import json
import os
import re

import pytest

from . import catalog
from .aa import spread, worsening
from .spans import Recorder

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_committed_manifest_is_the_catalogue():
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == catalog.manifest()


def test_manifest_is_inside_the_contract():
    manifest = catalog.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(name) for name in names)
    for entry in manifest["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert _UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    bounds = {entry["name"]: entry["bound"] for entry in manifest["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(manifest)) < 64 * 1024


def test_every_layer_metric_names_an_end_to_end_metric_or_none():
    known = {metric.name for metric in catalog.METRICS}
    for metric in catalog.per_layer():
        assert metric.moves == "" or metric.moves in known, metric.name


def test_self_time_is_duration_minus_children():
    recorder = Recorder()
    with recorder.span("outer") as outer:
        with recorder.span("inner") as first:
            pass
        with recorder.span("inner") as second:
            with recorder.span("leaf") as leaf:
                pass
    assert first["root"] == second["root"] == leaf["root"] == outer["id"]
    assert leaf["parent"] == second["id"]
    for record, (start, end) in zip((outer, first, second, leaf), ((0, 10), (1, 3), (4, 9), (5, 8))):
        record["start"], record["end"] = float(start), float(end)
    assert recorder.self_times() == {"outer": 10 - 2 - 5, "inner": 2 + (5 - 3), "leaf": 3}
    assert recorder.self_times(since=recorder.mark()) == {}


def test_spread_and_worsening_follow_the_driver():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert spread(values) == pytest.approx((17.25 - 11.75) / 14.5)  # exclusive quartiles
    assert worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
