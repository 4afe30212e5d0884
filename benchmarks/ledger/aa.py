"""A/A mode: is the ledger steady enough to carry its own bounds?

``--aa N`` runs every workload ``N`` times twice over — set A and set B,
alternating, each run a fresh process with its own seed — on the *same*
code, and reports per end-to-end metric and workload:

* min / median / max over all ``2N`` runs;
* the spread the driver computes (interquartile distance over the median,
  ``statistics.quantiles(values, n=4)``), for the normalised metric and for
  its raw twin, and the normalised spread as a share of the bound;
* the distance between the two sets' medians, in the worsening direction,
  as a share of the bound.

It exits non-zero when two set medians differ by more than the metric's
bound, or when a metric that must repeat exactly (counts, call counts,
hwsim predictions) differs between any two runs of a workload.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

from . import catalog

__all__ = ["run_aa", "spread", "worsening", "report"]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median, as the driver takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the value ``second`` is worse (negative: better)."""
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


Run = Dict[str, dict]  # metric name -> row, as ``--out`` writes them


def _one_run(entry: str, workload: str, seed: int, seconds: float, out: str) -> Optional[Run]:
    command = [
        sys.executable, entry, "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", "0", "--out", out,
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        print(done.stdout, file=sys.stderr)
        return None
    with open(out, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload["failed"]:
        print(f"aa: {workload} seed {seed}: {payload['failed']} operations failed: "
              f"{payload['failures']}", file=sys.stderr)
        return None
    return payload["rows"]


def report(sets: Dict[str, List[List[Run]]], seconds: float) -> tuple:
    """Markdown lines and the list of violations for ``sets[workload] = [A runs, B runs]``."""
    lines = [
        "# Ledger A/A report",
        "",
        f"Same code, two alternating sets of {len(next(iter(sets.values()))[0])} runs per workload, "
        f"`--seconds {seconds:g}`, a fresh process and a new seed per run.",
        "`spread` is the interquartile distance over the median of all runs of the workload "
        "(what the driver computes); `A→B` is how much worse set B's median is than set A's.",
        "",
    ]
    violations: List[str] = []
    for workload, (first, second) in sets.items():
        runs = first + second
        lines += [
            f"## {workload}",
            "",
            "| metric | unit | min | median | max | spread | raw spread | bound | spread ÷ bound | A→B ÷ bound |",
            "|---|---|---|---|---|---|---|---|---|---|",
        ]
        for metric in catalog.end_to_end():
            values = [run[metric.name]["value"] for run in runs]
            raw_name = metric.name + ".raw"
            raw = [run[raw_name]["value"] for run in runs if raw_name in run]
            own = spread(values)
            moved = worsening(
                statistics.median(run[metric.name]["value"] for run in first),
                statistics.median(run[metric.name]["value"] for run in second),
                metric.better,
            )
            lines.append(
                f"| `{metric.name}` | {metric.unit} | {min(values):.5g} | "
                f"{statistics.median(values):.5g} | {max(values):.5g} | {own:.3f} | "
                f"{f'{spread(raw):.3f}' if len(raw) == len(runs) else '—'} | {metric.bound:g} | "
                f"{own / metric.bound:.2f} | {moved / metric.bound:+.2f} |"
            )
            if moved > metric.bound:
                violations.append(
                    f"{workload}: {metric.name} set medians differ by {moved:.3f} > bound {metric.bound:g}"
                )
        exact = [
            metric for metric in catalog.METRICS
            if metric.exact and all(metric.name in run for run in runs)
        ]
        differing = [
            metric.name for metric in exact
            if len({run[metric.name]["value"] for run in runs}) != 1
        ]
        lines += ["", f"Exact metrics identical across all {len(runs)} runs: "
                  f"{len(exact) - len(differing)} of {len(exact)}."]
        for name in differing:
            seen = sorted({run[name]["value"] for run in runs})
            lines.append(f"- `{name}` differs: {seen}")
            violations.append(f"{workload}: exact metric {name} differs across runs: {seen}")
        lines.append("")
    lines += ["## Verdict", ""]
    lines += [f"- FAIL {item}" for item in violations] or ["Every set median within its bound; "
                                                         "every exact metric identical."]
    return lines, violations


def run_aa(entry: str, root: str, repeats: int, seconds: float, report_path: Optional[str]) -> int:
    if repeats < 2:
        print("aa: need at least 2 runs per set to take quartiles", file=sys.stderr)
        return 2
    sets: Dict[str, List[List[Run]]] = {name: [[], []] for name in catalog.WORKLOADS}
    scratch = os.path.join(root, ".ledger_scratch", f"aa-{os.getpid()}")
    os.makedirs(scratch)
    try:
        for repeat in range(repeats):
            for which in (0, 1):
                for workload in catalog.WORKLOADS:
                    seed = 1 + repeat + which * repeats
                    out = os.path.join(scratch, f"{workload}-{seed}.json")
                    print(f"aa: set {'AB'[which]} run {repeat + 1}/{repeats}: {workload} seed {seed}",
                          file=sys.stderr)
                    rows = _one_run(entry, workload, seed, seconds, out)
                    if rows is None:
                        return 1
                    sets[workload][which].append(rows)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines, violations = report(sets, seconds)
    text = "\n".join(lines) + "\n"
    print(text)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 1 if violations else 0
