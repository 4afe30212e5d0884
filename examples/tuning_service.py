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
3. warms the rest of Table I with one synchronous ``warm("table1")``
   request, so a third client's full sweep is pure warm hits;
4. compiles a whole model with ``compile_model(session=RemoteSession(...))``
   — the drop-in path every figure driver shares;
5. prints the daemon's stats endpoint.

Run:  PYTHONPATH=src python examples/tuning_service.py
"""

import os
import tempfile
import threading

from repro.core import UnitCpuRunner, compile_model
from repro.models.zoo import get_model
from repro.rewriter import TuningSession
from repro.service import RemoteSession, ServiceClient, TuningService
from repro.workloads.table1 import TABLE1_LAYERS

SLICE = TABLE1_LAYERS[:6]


def main() -> None:
    root = os.path.join(tempfile.mkdtemp(prefix="unit_service."), "store")

    with TuningService(root) as service:
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

        # 2. Warm: one request tunes the whole sweep before it is answered.
        with ServiceClient((host, port)) as admin:
            warmed = admin.warm("table1")
        follower = RemoteSession((host, port))
        follower_runner = UnitCpuRunner(session=follower)
        for params in TABLE1_LAYERS:
            follower_runner.conv2d_latency(params)
        print("\n== Synchronous warm-up (sweep: 'table1') ==")
        print(f"  warm                    : {warmed['tuned']} tuned, {warmed['hits']} hits")
        print(f"  follower server hits    : {follower.server_hits} / {len(TABLE1_LAYERS)}")
        print(f"  follower searches       : {follower.searches_run}")
        assert (warmed["tasks"], warmed["hits"]) == (len(TABLE1_LAYERS), len(SLICE))
        assert follower.searches_run == 0

        # 3. Whole-model compilation against the daemon.
        compiled = compile_model(
            get_model("resnet-18", fresh=True), session=RemoteSession((host, port))
        )
        print("\n== compile_model(session=RemoteSession(...)) ==")
        print(f"  resnet-18 x86           : {compiled.latency_ms:.3f} ms")

        # 4. Stats over the wire.
        with ServiceClient((host, port)) as admin:
            stats = admin.stats()
        print("\n== Stats endpoint ==")
        print(f"  requests served         : {stats['service']['requests']}")
        print(f"  store                   : {stats['store']['appends']} appends, "
              f"{stats['store']['corrupt_lines']} corrupt")
        print(f"\n  {service.summary()}")


if __name__ == "__main__":
    main()
