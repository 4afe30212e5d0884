#!/usr/bin/env python3
"""Distributed tuning walkthrough: many worker processes, one sharded store.

The tuning loop is embarrassingly parallel across tuning *problems*, so this
example:

1. fans the Table I layer set out over 4 worker processes with
   ``DistributedTuner`` — each worker claims disjoint task slices through a
   lease file and publishes winners into one ``ShardedTuningStore``;
2. reloads the store in a fresh store-backed ``TuningSession`` and shows the
   warm pass performing *zero* tuning trials while reproducing the
   single-process results bit-identically;
3. compiles a whole model through
   ``compile_model_batch(session=TuningSession(store=...), workers=)``, which
   pre-tunes every distinct layer across processes before the serial
   compile walks the graph against warm records;
4. compacts the store: append-only duplicate lines fold down to one line per
   key, atomically.

Run:  PYTHONPATH=src python examples/distributed_tuning.py
"""

import os
import tempfile

from repro.core import UnitCpuRunner, compile_model_batch
from repro.rewriter import (
    DistributedTuner,
    ShardedTuningStore,
    TuningSession,
    tasks_from_layers,
)
from repro.workloads.table1 import TABLE1_LAYERS

WORKERS = 4


def main() -> None:
    root = os.path.join(tempfile.mkdtemp(prefix="unit_distributed."), "store")

    # 1. Tune the Table I layer set across worker processes.
    store = ShardedTuningStore(root, shards=8)
    tuner = DistributedTuner(store, workers=WORKERS)
    report = tuner.run(tasks_from_layers(TABLE1_LAYERS))
    print("== Distributed tuning ==")
    print(f"  {report.summary()}")
    for worker in report.workers:
        print(
            f"  {worker.worker}: {worker.tasks_done} tasks, "
            f"{worker.trials} trials in {worker.seconds * 1e3:.0f} ms"
        )

    # 2. A fresh session reading through the store does zero tuning work and
    #    reproduces a single-process run bit-identically.
    reference = TuningSession()
    ref_runner = UnitCpuRunner(session=reference)
    warm = TuningSession(store=store)
    warm_runner = UnitCpuRunner(session=warm)
    identical = all(
        warm_runner.conv2d_latency(params) == ref_runner.conv2d_latency(params)
        for params in TABLE1_LAYERS
    )
    print("\n== Warm read-through ==")
    print(f"  records in store        : {len(store.load())}")
    print(f"  warm-session trials     : {warm.trials_run} (store hits: {warm.store_hits})")
    print(f"  identical to 1-process  : {identical}")
    assert identical and warm.trials_run == 0

    # 3. Whole-model compilation with distributed pre-tuning.
    batch_store = ShardedTuningStore(root + "-batch", shards=8)
    batch = compile_model_batch(
        ["resnet-18"],
        targets=("x86",),
        session=TuningSession(store=batch_store),
        workers=WORKERS,
    )
    print("\n== compile_model_batch(session=TuningSession(store=), workers=) ==")
    for compiled in batch:
        print(f"  {compiled.name:<14} {compiled.target:<5} {compiled.latency_ms:.3f} ms")

    # 4. Compaction: fold duplicate appends down to one line per key.
    compaction = batch_store.compact()
    print(f"\n== Compaction ==\n  kept {compaction['kept']}, dropped {compaction['dropped']}")
    print(f"  {batch_store.summary()}")


if __name__ == "__main__":
    main()
