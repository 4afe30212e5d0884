#!/usr/bin/env python3
"""Observability walkthrough: spans, counters, the results DB, and queries.

Everything in the compiler and the tuning stack is permanently instrumented
— plan compilation, native-tier promotion, store lookups, worker
supervision, service requests — but all of it is **off by default**: every
hook's first statement is a global load and a ``None`` test, so production
runs pay nothing.  This example turns the sinks on and walks the full loop:

1. install a :class:`MetricsRegistry` and a span :class:`Tracer`;
2. run real work (compile a Table I layer, promote it through the native
   tier, tune through a session, serve requests from a live daemon);
3. print the span tree (wall vs exclusive time, parent/child nesting) and
   the counter snapshot;
4. record two runs into the sqlite results DB and show the trend/flame
   queries that ``python -m repro query`` exposes.

Run:  PYTHONPATH=src python examples/observability.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core.pipeline import UnitCpuRunner
from repro.rewriter import TuningSession
from repro.service import ServiceClient, TuningService
from repro.telemetry import metrics, trace
from repro.telemetry.resultsdb import ResultsDB
from repro.telemetry.trace import format_span_tree, top_spans
from repro.tir import alloc_buffers, compile_plan, lower
from repro.tir.backend import run_tiered
from repro.workloads import conv2d_nchwc
from repro.workloads.table1 import TABLE1_LAYERS


def compile_and_run_layer1() -> None:
    """Compile Table I layer 1 and execute it through the tiered engine."""
    params = TABLE1_LAYERS[0]
    out = conv2d_nchwc(params)
    func = lower(out)
    with trace.span("example.layer1", layer=params.name):
        plan = compile_plan(func)
        buffers = alloc_buffers(func, np.random.default_rng(0))
        run_tiered(plan, buffers)


def tune_a_layer() -> None:
    """One in-process tuning search (counts searches, trials, store traffic)."""
    session = TuningSession()
    runner = UnitCpuRunner(session=session)
    with trace.span("example.tune"):
        runner.conv2d_latency(TABLE1_LAYERS[0])


def serve_requests(root: Path) -> None:
    """A live daemon answering requests: per-op counters + latency histogram."""
    with TuningService(root / "store") as svc:
        with ServiceClient(svc.address) as client:
            client.ping()
            stats = client.stats()
    print(
        f"  service uptime {stats['uptime_s']:.2f}s, "
        f"telemetry counters on the wire: "
        f"{sorted(k for k in stats['telemetry'] if k.startswith('service.'))}"
    )


def main() -> None:
    tmp = Path(tempfile.mkdtemp(prefix="repro-observability-"))
    db_path = str(tmp / "results.db")

    print("== 1. everything is silent until a sink is installed ==")
    assert metrics.active() is None and trace.active() is None
    metrics.count("ghost.counter")  # permanent hook, zero cost, no state
    print("  no registry installed: counters go nowhere, spans are NULL_SPAN\n")

    print("== 2. instrumented compile + native tier + tuning + service ==")
    for attempt in (1, 2):  # two recorded runs make a trend
        with metrics.collecting() as registry, trace.tracing() as tracer:
            compile_and_run_layer1()
            tune_a_layer()
            serve_requests(tmp / f"svc{attempt}")
            payload = {
                "benchmark": "observability_example",
                "counters": registry.counters(),
            }
            with ResultsDB(db_path) as db:
                run_id = db.record_run(
                    "observability_example",
                    payload,
                    label=f"attempt-{attempt}",
                    spans=tracer.finished(),
                )
            print(f"  recorded run {run_id} with {len(tracer.finished())} spans")

        if attempt == 1:
            print("\n  span tree (wall vs exclusive, nesting intact):")
            for line in format_span_tree(tracer.finished()).splitlines():
                print("   ", line)
            print("\n  hottest spans by exclusive time:")
            for name, calls, excl_s, wall_s in top_spans(tracer.finished(), n=5):
                print(
                    f"    {name:<24} x{calls:<3} excl {excl_s * 1e3:8.2f}ms"
                    f"  wall {wall_s * 1e3:8.2f}ms"
                )
            interesting = [
                (name, value)
                for name, value in sorted(registry.counters().items())
                if name.startswith(("tir.", "tuner.", "store."))
            ]
            print("\n  counter snapshot (tir/tuner/store):")
            for name, value in interesting:
                print(f"    {name:<28} {value:g}")
            print()

    print("\n== 3. the results DB is queryable history ==")
    with ResultsDB(db_path) as db:
        for row in db.runs(kind="observability_example"):
            print(
                f"  run {row['id']} [{row['label']}] git={row['git_rev']}"
                f" metrics={row['metrics']} spans={row['spans']}"
            )
        points = db.metric_trend(
            "counters.tir.plan_compiles", kind="observability_example"
        )
        values = [p["value"] for p in points]
        print(f"  trend counters.tir.plan_compiles over runs: {values}")
        assert len(values) == 2, "both runs must appear in the trend"

    print(
        "\nSame data via the CLI:\n"
        f"  PYTHONPATH=src python -m repro query runs --db {db_path}\n"
        f"  PYTHONPATH=src python -m repro query trend 'counters.%' --db {db_path}\n"
        f"  PYTHONPATH=src python -m repro query spans --tree --db {db_path}"
    )


if __name__ == "__main__":
    main()
