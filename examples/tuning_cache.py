#!/usr/bin/env python3
"""Tuning-cache walkthrough: share, persist and reload tuning records.

The Rewriter profiles a small schedule space per tensorized operator.  This
example shows the three levels of reuse the tuning-record subsystem provides:

1. one session shared by many runners — each distinct (workload, instruction,
   machine, search-space) problem is tuned once per process;
2. persistence — a session backed by a store directory
   (``TuningSession(store=path)``) writes every record through to disk, and
   a later session over the same directory reproduces the identical best
   configs and costs with *zero* tuning trials;
3. batch compilation — ``compile_model_batch`` sweeps models × targets
   through one warm cache.

Run:  PYTHONPATH=src python examples/tuning_cache.py
"""

import tempfile

from repro.core import compile_model_batch, experiments
from repro.rewriter import TuningSession

MODELS = ["resnet-18", "mobilenet-v2"]


def main() -> None:
    # 1. Share one session across a whole figure: every runner the experiment
    #    driver builds tunes through the same record store.  Backing it with
    #    a store directory is also what makes the records persistent.
    root = tempfile.mkdtemp(prefix="unit_tuning_cache.")
    session = TuningSession(store=root)
    rows = experiments.figure8_cpu_end_to_end(MODELS, session=session)
    print("== Figure 8, cold cache ==")
    for row in rows:
        if row["model"] != "geomean":
            print(f"  {row['model']:<14} unit={row['unit_ms']:.3f} ms")
    print(f"  {session.summary()}")

    trials_cold = session.trials_run
    experiments.figure8_cpu_end_to_end(MODELS, session=session)
    print("\n== Figure 8 again, same session ==")
    print(f"  new tuning trials: {session.trials_run - trials_cold} (all cache hits)")

    # 2. Every fresh record was written through to the store; a fresh session
    #    over the same directory reads them back, as a new process would.
    print(f"\n== Persistence ==\n  {len(session.store)} records in {root}")

    warm = TuningSession(store=root)
    warm_rows = experiments.figure8_cpu_end_to_end(MODELS, session=warm)
    identical = all(
        a == b for a, b in zip(rows, warm_rows)
    )
    print(f"  reloaded rows identical: {identical}")
    print(f"  tuning trials after reload: {warm.trials_run}")
    assert identical and warm.trials_run == 0

    # 3. Batch-compile models × targets through the warm cache.
    batch = compile_model_batch(MODELS, targets=("x86", "cuda"), session=warm)
    print("\n== compile_model_batch over the warm cache ==")
    for compiled in batch:
        print(f"  {compiled.name:<14} {compiled.target:<5} {compiled.latency_ms:.3f} ms")
    print(f"  {warm.summary()}")


if __name__ == "__main__":
    main()
