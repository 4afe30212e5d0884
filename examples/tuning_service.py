#!/usr/bin/env python3
"""Tuning-as-a-service walkthrough: one daemon, many machines, zero re-tuning.

PR 3's distributed tuner parallelised tuning across *local* processes; the
tuning service turns the same store into a network daemon so any number of
client machines share one warm corpus.  This example:

1. starts a ``TuningService`` daemon (in-process, ephemeral port — exactly
   what ``python -m repro.service serve`` runs in production) over a fresh
   sharded store;
2. points two concurrent ``RemoteSession`` clients at the same Table I
   slice: the daemon's read-through + in-flight coalescing ensure each
   unique ``TuningKey`` is searched exactly once *fleet-wide*, and both
   clients receive bit-identical records;
3. lets one request's ``speculate=`` sweep hint pre-tune the remaining
   layers during idle time, so a third client's full sweep is pure warm
   hits;
4. compiles a whole model with ``compile_model(session=RemoteSession(...))``
   — the drop-in path every figure driver shares;
5. garbage-collects the store over the wire (LRU by last-served) and prints
   the daemon's stats endpoint.

Run:  PYTHONPATH=src python examples/tuning_service.py
"""

import os
import tempfile
import threading
import time

from repro.core import UnitCpuRunner, compile_model
from repro.models.zoo import get_model
from repro.rewriter import TuningSession
from repro.service import RemoteSession, ServiceClient, TuningService
from repro.workloads.table1 import TABLE1_LAYERS

SLICE = TABLE1_LAYERS[:6]


def main() -> None:
    root = os.path.join(tempfile.mkdtemp(prefix="unit_service."), "store")

    with TuningService(root, speculative=True) as service:
        host, port = service.address
        print("== Daemon ==")
        print(f"  listening on {host}:{port} over {root!r}")

        # 1. Two concurrent clients sweep the same slice.
        def sweep(session, barrier):
            runner = UnitCpuRunner(session=session)
            barrier.wait()
            for params in SLICE:
                runner.conv2d_latency(params)

        clients = [RemoteSession((host, port)) for _ in range(2)]
        barrier = threading.Barrier(2)
        threads = [
            threading.Thread(target=sweep, args=(session, barrier))
            for session in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        reference = TuningSession()
        reference_runner = UnitCpuRunner(session=reference)
        for params in SLICE:
            reference_runner.conv2d_latency(params)
        identical = all(
            clients[0].cache.lookup(record.key).to_json() == record.to_json()
            and clients[1].cache.lookup(record.key).to_json() == record.to_json()
            for record in reference.cache.records()
        )
        print("\n== Two concurrent clients, one shared slice ==")
        print(f"  unique keys             : {len(reference.cache.records())}")
        print(f"  server-side searches    : {service.session.searches_run}")
        print(f"  coalesced waiters       : {service.stats.coalesced_waiters}")
        print(f"  client trials run       : {clients[0].trials_run} + {clients[1].trials_run}")
        print(f"  bit-identical to local  : {identical}")
        assert identical
        assert service.session.searches_run == len(SLICE)
        assert clients[0].trials_run == clients[1].trials_run == 0

        # 2. Speculation: one request hints its sweep; idle time tunes the rest.
        hinted = RemoteSession((host, port), speculate="table1")
        UnitCpuRunner(session=hinted).conv2d_latency(TABLE1_LAYERS[6])
        deadline = time.time() + 60
        while time.time() < deadline and service.session.searches_run < len(TABLE1_LAYERS):
            time.sleep(0.01)
        follower = RemoteSession((host, port))
        follower_runner = UnitCpuRunner(session=follower)
        for params in TABLE1_LAYERS:
            follower_runner.conv2d_latency(params)
        print("\n== Speculative warm-up (sweep hint: 'table1') ==")
        print(f"  speculatively tuned     : {service.stats.speculative_tuned}")
        print(f"  follower server hits    : {follower.server_hits} / {len(TABLE1_LAYERS)}")
        print(f"  follower searches       : {follower.searches_run}")
        assert follower.searches_run == 0

        # 3. Whole-model compilation against the daemon.
        compiled = compile_model(
            get_model("resnet-18", fresh=True), session=RemoteSession((host, port))
        )
        print("\n== compile_model(session=RemoteSession(...)) ==")
        print(f"  resnet-18 x86           : {compiled.latency_ms:.3f} ms")

        # 4. Store GC + stats over the wire.
        with ServiceClient((host, port)) as admin:
            gc = admin.gc(max_records=8)
            stats = admin.stats()
        print("\n== GC + stats endpoint ==")
        print(f"  gc                      : kept {gc['kept']}, evicted {gc['evicted']}")
        print(f"  requests served         : {stats['service']['requests']}")
        print(f"  store                   : {stats['store']['appends']} appends, "
              f"{stats['store']['evicted_records']} evicted, "
              f"{stats['store']['corrupt_lines']} corrupt")
        print(f"\n  {service.summary()}")


if __name__ == "__main__":
    main()
