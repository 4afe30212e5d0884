"""Compare a fresh benchmark JSON against a committed baseline.

The CI ``bench-smoke`` job runs the compile-time benchmark and then gates the
pipeline on this script: timings may drift with runner hardware, but a
multiple-of-baseline blowup is a real regression.  Tolerances are therefore
generous (default 3x) and only *meaningful* metrics are compared:

* keys ending in ``_s`` or ``_ms`` are wall-clock timings — **worse when
  larger**; fail when ``fresh > baseline * tolerance``.  Timings below the
  floor (default 5 ms) are noise-dominated and skipped;
* keys containing ``speedup``, ``hit_rate`` or ``memory_reuse`` are
  **better when larger**; fail when ``fresh < baseline / tolerance``;
* keys containing ``proved`` or ``elided`` are static-analysis coverage
  counters — exact, not noisy, so they get **no tolerance**: fail when
  ``fresh < baseline``.  A change that silently loses bounds proofs (and
  with them the elided runtime checks) fails CI even if nothing got slower;
* keys containing ``native_runs`` or ``native_promotions`` are the native
  tier's coverage counters and are gated the same way (**never lower**): a
  change that silently stops plans from promoting — or makes promoted plans
  demote — fails CI even though the vectorized fallback masks it;
* everything else (counters, flags, labels) is informational and ignored.

Keys present on only one side are reported as warnings, not failures, so the
benchmark schema can grow without breaking the gate.

Usage::

    python benchmarks/check_regression.py FRESH.json BASELINE.json \
        [--tolerance 3.0] [--floor-ms 5.0] [--history K]

``--history K`` additionally reports each gated metric's *trend* over the
last K runs recorded in the telemetry results DB (direction + worst
step-to-step adverse delta) — regressions over time, not just vs one frozen
snapshot.  The verdicts are also persisted into the DB when it exists, so
``python -m repro query verdicts`` can replay gate history.  Exit-code
semantics are unchanged in every mode: 0 when no metric regressed vs the
committed baseline, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator, List, Optional, Tuple

def _resultsdb():
    """Import :mod:`repro.telemetry.resultsdb`, adding ``src/`` if needed.

    The gate is historically invoked without ``PYTHONPATH=src`` (it used to
    be stdlib-only), so the telemetry import must bootstrap its own path.
    """
    try:
        from repro.telemetry import resultsdb
    except ImportError:
        sys.path.insert(
            0,
            os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"),
        )
        from repro.telemetry import resultsdb
    return resultsdb


# ``benchmark`` field in the fresh JSON -> run kind in the results DB.
_KIND_BY_BENCHMARK = {
    "compile_time": "compile_time",
    "tuning_service": "service",
    "tuning_service_chaos": "service_chaos",
}


def _numeric_leaves(data, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Flatten nested dicts/lists into dotted-path -> numeric-leaf pairs."""
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _numeric_leaves(value, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(data, list):
        for index, value in enumerate(data):
            yield from _numeric_leaves(value, f"{prefix}[{index}]")
    elif isinstance(data, bool):
        return  # bools are ints to isinstance(); they are flags, not metrics
    elif isinstance(data, (int, float)):
        yield prefix, float(data)


def _metric_kind(path: str) -> str:
    leaf = path.rsplit(".", 1)[-1].split("[")[0]
    if "speedup" in leaf or "hit_rate" in leaf or "memory_reuse" in leaf:
        return "higher_is_better"
    if "proved" in leaf or "elided" in leaf:
        return "never_lower"
    if "native_runs" in leaf or "native_promotions" in leaf:
        return "never_lower"
    if leaf.endswith("_s") or leaf.endswith("_ms"):
        return "lower_is_better"
    return "ignored"


def _in_seconds(path: str, value: float) -> float:
    return value / 1e3 if path.rsplit(".", 1)[-1].split("[")[0].endswith("_ms") else value


def compare(fresh: dict, base: dict, tolerance: float, floor_s: float):
    """Returns (failures, checks, warnings, verdicts).

    The first three are report lines; ``verdicts`` are structured
    ``(metric, kind, ok, fresh, baseline)`` rows for the results DB.
    """
    fresh_leaves = dict(_numeric_leaves(fresh))
    base_leaves = dict(_numeric_leaves(base))
    failures: List[str] = []
    checks: List[str] = []
    warnings: List[str] = []
    verdicts: List[Tuple[str, str, bool, float, float]] = []
    for path, base_value in sorted(base_leaves.items()):
        kind = _metric_kind(path)
        if kind == "ignored":
            continue
        if path not in fresh_leaves:
            warnings.append(f"missing from fresh results: {path}")
            continue
        fresh_value = fresh_leaves[path]
        if kind == "lower_is_better":
            if _in_seconds(path, base_value) < floor_s:
                continue  # noise-dominated
            limit = base_value * tolerance
            ok = fresh_value <= limit
            line = f"{path}: {fresh_value:.4g} vs baseline {base_value:.4g} (limit {limit:.4g})"
        elif kind == "never_lower":
            ok = fresh_value >= base_value
            line = (
                f"{path}: {fresh_value:.4g} vs baseline {base_value:.4g} "
                f"(coverage counter, no tolerance)"
            )
        else:
            limit = base_value / tolerance
            ok = fresh_value >= limit
            line = f"{path}: {fresh_value:.4g} vs baseline {base_value:.4g} (floor {limit:.4g})"
        (checks if ok else failures).append(("PASS " if ok else "FAIL ") + line)
        verdicts.append((path, kind, ok, fresh_value, base_value))
    for path in sorted(set(fresh_leaves) - set(base_leaves)):
        if _metric_kind(path) != "ignored":
            warnings.append(f"not in baseline (uncompared): {path}")
    return failures, checks, warnings, verdicts


def _trend_report(
    base: dict, run_kind: Optional[str], last: int, db_path: Optional[str]
) -> List[str]:
    """Per-gated-metric trend lines over the last K recorded runs.

    ``direction`` reads the trajectory first-to-last through the metric's
    kind (a falling timing is *improving*); ``worst step`` is the largest
    adverse run-to-run delta inside the window — a sawtooth that nets out
    flat still shows its worst spike.
    """
    lines: List[str] = []
    with _resultsdb().ResultsDB(db_path) as db:
        for path, _ in sorted(_numeric_leaves(base)):
            kind = _metric_kind(path)
            if kind == "ignored":
                continue
            points = db.metric_trend(path, kind=run_kind, last=last)
            values = [point["value"] for point in points if point["path"] == path]
            if len(values) < 2:
                lines.append(f"{path}: {len(values)} recorded run(s), no trend")
                continue
            adverse_is_up = kind == "lower_is_better"
            net = values[-1] - values[0]
            if abs(net) < 1e-12:
                direction = "flat"
            else:
                worsened = net > 0 if adverse_is_up else net < 0
                direction = "regressing" if worsened else "improving"
            steps = [b - a for a, b in zip(values, values[1:])]
            adverse = [s if adverse_is_up else -s for s in steps]
            worst = max(adverse)
            reference = max(abs(v) for v in values) or 1.0
            lines.append(
                f"{path} [{kind}]: {direction} over {len(values)} run(s) "
                f"({values[0]:.4g} -> {values[-1]:.4g}), worst step "
                f"{worst:+.4g} ({worst / reference * 100:+.1f}%)"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly produced benchmark JSON")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--tolerance", type=float, default=3.0, help="allowed multiple of baseline"
    )
    parser.add_argument(
        "--floor-ms",
        type=float,
        default=5.0,
        help="skip timings whose baseline is below this (noise)",
    )
    parser.add_argument(
        "--history",
        type=int,
        default=0,
        metavar="K",
        help="also report each gated metric's trend over the last K runs "
        "recorded in the results DB (requires the DB to exist)",
    )
    parser.add_argument(
        "--results-db",
        default=None,
        help="telemetry results DB path (default: $REPRO_RESULTS_DB or "
        "./results.db)",
    )
    args = parser.parse_args(argv)

    with open(args.fresh) as handle:
        fresh = json.load(handle)
    with open(args.baseline) as handle:
        base = json.load(handle)

    failures, checks, warnings, verdicts = compare(
        fresh, base, args.tolerance, args.floor_ms / 1e3
    )
    for line in checks:
        print(line)
    for line in warnings:
        print("WARN", line)
    for line in failures:
        print(line)
    print(
        f"{len(checks)} ok, {len(failures)} regressed, {len(warnings)} warnings "
        f"(tolerance {args.tolerance}x, floor {args.floor_ms} ms)"
    )

    # The results DB is optional everywhere here: the gate must keep
    # working (and exiting identically) on a runner with no DB at all.
    resultsdb = _resultsdb()
    db_path = args.results_db or resultsdb.default_db_path()
    run_kind = _KIND_BY_BENCHMARK.get(str(fresh.get("benchmark", "")))
    if os.path.exists(db_path):
        with resultsdb.ResultsDB(db_path) as db:
            db.record_verdicts(db.latest_run_id(kind=run_kind), verdicts)
    if args.history > 0:
        if not os.path.exists(db_path):
            print(f"HISTORY skipped: no results DB at {db_path}")
        else:
            print(f"-- trend over last {args.history} recorded run(s) --")
            for line in _trend_report(base, run_kind, args.history, db_path):
                print("HISTORY", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
