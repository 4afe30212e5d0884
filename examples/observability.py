#!/usr/bin/env python3
"""Observability walkthrough: spans, owner counters, the results DB, and queries.

Everything in the compiler and the tuning stack is permanently traced —
plan compilation, native-tier promotion, tuning searches, service requests
— but the tracer is **off by default**: :func:`repro.telemetry.trace.span`'s
first statement is a global load and a ``None`` test, so production runs pay
nothing.  Counters need no sink at all: each lives as a field on the object
it counts (``plan_cache().stats``, ``Executor.stats``,
``TuningSession.searches_run``, ``TuningService.stats``).  This example turns
the tracer on and walks the full loop:

1. install a span :class:`Tracer`;
2. run real work (compile a Table I layer, promote it through the native
   tier, tune through a session, serve requests from a live daemon);
3. print the span tree (wall vs exclusive time, parent/child nesting) and
   the counters read from their owners;
4. record two runs into the sqlite results DB and show the trend/flame
   queries that ``python -m repro query`` exposes.

Run:  PYTHONPATH=src python examples/observability.py
"""

import tempfile
from pathlib import Path
from typing import Dict

import numpy as np

from repro.core.pipeline import UnitCpuRunner
from repro.rewriter import TuningSession
from repro.service import ServiceClient, TuningService
from repro.telemetry import trace
from repro.telemetry.resultsdb import ResultsDB
from repro.telemetry.trace import format_span_tree, top_spans
from repro.tir import Executor, alloc_buffers, lower, plan_cache
from repro.workloads import conv2d_nchwc
from repro.workloads.table1 import TABLE1_LAYERS


def compile_and_run_layer1(executor: Executor) -> None:
    """Compile Table I layer 1 and execute it through the tiered engine."""
    params = TABLE1_LAYERS[0]
    func = lower(conv2d_nchwc(params))
    with trace.span("example.layer1", layer=params.name):
        executor.run(func, alloc_buffers(func, np.random.default_rng(0)))


def tune_a_layer(session: TuningSession) -> None:
    """One in-process tuning search (counts searches and trials)."""
    with trace.span("example.tune"):
        UnitCpuRunner(session=session).conv2d_latency(TABLE1_LAYERS[0])


def serve_requests(root: Path) -> int:
    """A live daemon answering requests; returns how many it counted."""
    with TuningService(root / "store") as svc:
        with ServiceClient(svc.address) as client:
            client.ping()
            stats = client.stats()
        requests = sum(svc.stats.requests.values())
    print(
        f"  service uptime {stats['uptime_s']:.2f}s, "
        f"requests by op: {stats['service']['requests']}"
    )
    return requests


def owner_counters(executor: Executor, session: TuningSession, requests: int) -> Dict:
    """The counters of one attempt, each read from the object that keeps it."""
    cache = plan_cache().stats
    return {
        "tir.plan_cache.hits": cache.hits,
        "tir.plan_cache.misses": cache.misses,
        "tir.native_promotions": executor.stats.native_promotions,
        "tir.native_runs": executor.stats.native_runs,
        "tuner.searches": session.searches_run,
        "tuner.trials": session.trials_run,
        "service.requests": requests,
    }


def main() -> None:
    tmp = Path(tempfile.mkdtemp(prefix="repro-observability-"))
    db_path = str(tmp / "results.db")

    print("== 1. spans are silent until a tracer is installed ==")
    assert trace.active() is None
    assert trace.span("ghost.span") is trace.NULL_SPAN  # permanent hook, no state
    print("  no tracer installed: spans are NULL_SPAN\n")

    print("== 2. traced compile + native tier + tuning + service ==")
    for attempt in (1, 2):  # two recorded runs make a trend
        executor = Executor(promote_after=1)
        session = TuningSession()
        with trace.tracing() as tracer:
            compile_and_run_layer1(executor)
            tune_a_layer(session)
            requests = serve_requests(tmp / f"svc{attempt}")
            counters = owner_counters(executor, session, requests)
            payload = {"benchmark": "observability_example", "counters": counters}
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
            print("\n  counters, read from their owners:")
            for name, value in counters.items():
                print(f"    {name:<28} {value:g}")
            print()

    print("\n== 3. the results DB is queryable history ==")
    with ResultsDB(db_path) as db:
        for row in db.runs(kind="observability_example"):
            print(
                f"  run {row['id']} [{row['label']}] git={row['git_rev']}"
                f" metrics={row['metrics']} spans={row['spans']}"
            )
        points = db.metric_trend("counters.tuner.trials", kind="observability_example")
        values = [p["value"] for p in points]
        print(f"  trend counters.tuner.trials over runs: {values}")
        assert len(values) == 2, "both runs must appear in the trend"

    print(
        "\nSame data via the CLI:\n"
        f"  PYTHONPATH=src python -m repro query runs --db {db_path}\n"
        f"  PYTHONPATH=src python -m repro query trend 'counters.%' --db {db_path}\n"
        f"  PYTHONPATH=src python -m repro query spans --tree --db {db_path}"
    )


if __name__ == "__main__":
    main()
