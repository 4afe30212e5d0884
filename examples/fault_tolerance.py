#!/usr/bin/env python3
"""Fault-tolerance walkthrough: kill the daemon, restart it, lose it for good.

The tuning service is one daemon over one sharded store.  Its robustness
comes from the store, not from a second daemon.  This example:

1. starts a ``TuningService`` and warms a Table I slice through it;
2. **kills it without ceremony** (``kill()`` — the in-process stand-in for
   ``kill -9``: no drain, no flush);
3. **restarts** a daemon over the same store directory and port: a fresh
   ``RemoteSession`` sweep is served every warm key — zero searches
   anywhere — bit-identical to single-process tuning;
4. takes the daemon away for good: the session goes offline, the sweep
   completes by local search, and the records land in its fallback store;
5. audits every store with ``fsck`` — the kills tore nothing durable.

Run:  PYTHONPATH=src python examples/fault_tolerance.py
"""

import os
import tempfile
import time

from repro.core import UnitCpuRunner
from repro.rewriter import ShardedTuningStore, TuningSession
from repro.service import RemoteSession, TuningService
from repro.workloads.table1 import TABLE1_LAYERS

SLICE = TABLE1_LAYERS[:4]


def sweep(session, layers=SLICE):
    runner = UnitCpuRunner(session=session)
    for params in layers:
        runner.conv2d_latency(params)


def main() -> None:
    base = tempfile.mkdtemp(prefix="unit_faults.")
    store_root = os.path.join(base, "store")

    # 1. One daemon; warm the slice through it.
    first = TuningService(store_root).start()
    host, port = first.address
    print("== Daemon ==")
    print(f"  listening {host}:{port} over {store_root!r}")
    warm = RemoteSession((host, port))
    sweep(warm)
    print(f"  warmed                  : {warm.server_tunes} keys tuned server-side")
    assert warm.server_tunes == len(SLICE)

    # 2. Kill it dead.
    first.kill()
    report = ShardedTuningStore(store_root).fsck(quarantine=False)
    print("\n== Daemon killed ==")
    print(f"  store after the kill    : {report['records']} records, "
          f"{report['corrupt']} corrupt, clean={bool(report['clean'])}")
    assert report["clean"] == 1 and report["records"] == len(SLICE)

    # 3. Restart over the same store and port; the warm corpus is served.
    second = TuningService(store_root, host=host, port=port).start()
    fleet = RemoteSession((host, port), retries=1, timeout=2.0)
    t0 = time.perf_counter()
    sweep(fleet)
    elapsed = time.perf_counter() - t0
    print("\n== Restarted over the same store ==")
    print(f"  warm sweep after restart: {elapsed * 1e3:.1f} ms")
    print(f"  server hits             : {fleet.server_hits} / {len(SLICE)}")
    print(f"  searches anywhere       : {fleet.searches_run + second.session.searches_run}")
    assert fleet.server_hits == len(SLICE)
    assert fleet.searches_run == 0 and second.session.searches_run == 0

    # Bit-identical to single-process tuning, through death and restart.
    reference = TuningSession()
    sweep(reference)
    identical = all(
        fleet.cache.lookup(record.key).to_json() == record.to_json()
        for record in reference.cache.records()
    )
    print(f"  bit-identical to local  : {identical}")
    assert identical

    # 4. Total outage: the session goes offline and degrades to local search
    #    with a durable fallback store — no exception ever escapes.
    second.stop()
    fallback_root = os.path.join(base, "fallback")
    dark = RemoteSession(
        (host, port), retries=0, timeout=0.5, fallback_store=fallback_root
    )
    sweep(dark, TABLE1_LAYERS[4:6])
    print("\n== Total outage ==")
    print(f"  online                  : {dark.online}")
    print(f"  searched locally        : {dark.searches_run}")
    print(f"  fallback records        : {len(ShardedTuningStore(fallback_root).load())}")
    assert not dark.online and dark.searches_run == 2

    # 5. Post-mortem: every store audits clean — nothing durable tore.
    print("\n== fsck ==")
    for name, root in (("daemon", store_root), ("fallback", fallback_root)):
        report = ShardedTuningStore(root).fsck()
        print(f"  {name:8s}: {report['records']} records, "
              f"{report['corrupt']} corrupt, clean={bool(report['clean'])}")
        assert report["corrupt"] == 0 and report["clean"] == 1
    print(f"\n  {dark.summary()}")


if __name__ == "__main__":
    main()
