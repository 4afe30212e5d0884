"""Tuning-service benchmark: coalescing and warm sharing.

Not a paper figure — this tracks the networked tuning daemon itself.  Two
sections:

* **single_process** — the reference: one local ``TuningSession`` tunes the
  Table I slice serially; its records are the ground truth every remote
  client must receive bit-identically;
* **coalesced_clients** — one daemon, N concurrent ``RemoteSession`` clients
  sweeping the *same* slice.  The integrity gate asserts that each unique
  ``TuningKey`` was searched exactly once server-side (read-through hits +
  in-flight coalescing), that every client's records are bit-identical to
  the reference, and that a late client gets pure warm hits with zero
  searches anywhere.

A third section, ``--chaos``, is the restart drill and runs alone: a
*subprocess* daemon warms half the slice and is SIGKILLed, its store must
audit clean under ``fsck``, and a new subprocess daemon started over the
same store must serve the full sweep — warm keys without a single search,
cold keys tuned exactly once, every record bit-identical to single-process
tuning.

Run standalone to write ``BENCH_service.json`` (the CI ``service-smoke``
job uploads it as an artifact)::

    PYTHONPATH=src python benchmarks/bench_service.py [--layers K] \
        [--clients N] [--chaos] [-o OUT]

Every integrity check is a hard ``assert`` — this script is the CI gate for
the acceptance criterion that concurrent remote tuning is bit-identical to
single-process tuning with each key searched at most once, and (under
``--chaos``) that killing the daemon loses nothing it persisted.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.core import UnitCpuRunner
from repro.rewriter import ShardedTuningStore, TuningSession
from repro.service import RemoteSession, ServiceClient, TuningService
from repro.workloads.table1 import TABLE1_LAYERS


def bench_single_process(layers) -> dict:
    """The serial reference run (also returned: its records, for bit-compare)."""
    session = TuningSession()
    runner = UnitCpuRunner(session=session)
    t0 = time.perf_counter()
    for params in layers:
        runner.conv2d_latency(params)
    elapsed = time.perf_counter() - t0
    return {
        "layers": len(layers),
        "elapsed_s": elapsed,
        "trials": session.trials_run,
        "searches": session.searches_run,
        "_records": {r.key: r.to_json() for r in session.cache.records()},
    }


def bench_coalesced_clients(root, layers, clients: int, reference: dict) -> dict:
    """N concurrent remote clients over one shared slice, one daemon."""
    with TuningService(root) as service:
        sessions = [RemoteSession(service.address, tune_timeout=120.0) for _ in range(clients)]
        barrier = threading.Barrier(clients)
        errors = []

        def sweep(session):
            try:
                runner = UnitCpuRunner(session=session)
                barrier.wait(timeout=30)
                for params in layers:
                    runner.conv2d_latency(params)
            except Exception as exc:  # surfaced after join
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=sweep, args=(s,)) for s in sessions]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        elapsed = time.perf_counter() - t0
        assert not errors, f"client sweep errors: {errors}"

        # -- the acceptance criterion -------------------------------------
        unique_keys = len(reference["_records"])
        searched = service.session.searches_run
        assert searched == unique_keys, (
            f"{searched} server-side searches for {unique_keys} unique keys "
            "— coalescing/read-through failed to deduplicate"
        )
        mismatched = 0
        for session in sessions:
            for key, expected in reference["_records"].items():
                got = session.cache.lookup(key)
                assert got is not None, f"client missing record for {key}"
                if got.to_json() != expected:
                    mismatched += 1
        assert mismatched == 0, (
            f"{mismatched} remote records diverged from single-process tuning"
        )

        # A late client is served entirely from the warm corpus.
        late = RemoteSession(service.address)
        late_runner = UnitCpuRunner(session=late)
        t0 = time.perf_counter()
        for params in layers:
            late_runner.conv2d_latency(params)
        late_elapsed = time.perf_counter() - t0
        assert late.searches_run == 0 and late.server_tunes == 0
        assert late.server_hits == unique_keys
        assert service.session.searches_run == unique_keys

        store_stats = service.store.stats
        assert store_stats.corrupt_lines == 0 and store_stats.stale_records == 0
        return {
            "clients": clients,
            "unique_keys": unique_keys,
            "elapsed_s": elapsed,
            "server_searches": searched,
            "coalesced_waiters": service.stats.coalesced_waiters,
            "tune_requests": service.stats.requests.get("tune", 0),
            "mismatched_records": mismatched,
            "late_client_hits": late.server_hits,
            "late_client_searches": late.searches_run,
            "late_client_elapsed_s": late_elapsed,
            "store": {
                "appends": store_stats.appends,
                "corrupt_lines": store_stats.corrupt_lines,
                "stale_records": store_stats.stale_records,
            },
        }


def _spawn_daemon(root: str) -> tuple:
    """Launch ``python -m repro.service serve`` and parse its bound address."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--root", root, "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        bufsize=1,
        env=env,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"daemon exited: rc={proc.poll()}")
        if "listening on " in line:
            endpoint = line.split("listening on ", 1)[1].split(" over ", 1)[0]
            host, _, port = endpoint.strip().rpartition(":")
            return proc, (host, int(port))
    proc.kill()
    raise RuntimeError("daemon never reported its address")


def _searches(address) -> int:
    with ServiceClient(address, timeout=5.0) as client:
        return client.stats()["session"]["searches_run"]


def bench_chaos_restart(root, layers, reference: dict) -> dict:
    """SIGKILL the daemon, restart it over the same store, sweep again.

    Invariants asserted:

    * the killed daemon's store audits clean under ``fsck`` — SIGKILL at an
      arbitrary instant tears no durable state;
    * keys warmed before the kill are *served* by the new daemon, not
      re-searched;
    * cold keys are tuned exactly once, by the new daemon;
    * every record is bit-identical to single-process tuning.
    """
    store_root = f"{root}/store"
    procs = []
    try:
        # Phase 1: warm half the slice through the first daemon.
        proc, first_addr = _spawn_daemon(store_root)
        procs.append(proc)
        warm_slice = layers[: max(1, len(layers) // 2)]
        warm = RemoteSession(first_addr, tune_timeout=120.0)
        t0 = time.perf_counter()
        _sweep(warm, warm_slice)
        warm_s = time.perf_counter() - t0
        warmed = warm.server_tunes
        assert warm.searches_run == 0 and _searches(first_addr) == warmed
        warm.close()

        # Phase 2: kill it dead — no drain, no goodbye — and audit the corpse.
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        report = ShardedTuningStore(store_root).fsck(quarantine=False)
        assert report["corrupt"] == 0 and report["clean"] == 1, (
            f"SIGKILL left the store unclean: {report}"
        )
        assert report["records"] == warmed, (
            f"{report['records']} records on disk for {warmed} warmed keys"
        )

        # Phase 3: a new daemon over the same store.
        t0 = time.perf_counter()
        proc, addr = _spawn_daemon(store_root)
        procs.append(proc)
        restart_s = time.perf_counter() - t0

        # Phase 4: a fresh client sweeps the FULL slice.
        session = RemoteSession(addr, timeout=5.0, tune_timeout=120.0)
        t0 = time.perf_counter()
        _sweep(session, layers)
        sweep_s = time.perf_counter() - t0

        unique_keys = len(reference["_records"])
        cold = unique_keys - warmed
        assert session.searches_run == 0, (
            f"client searched {session.searches_run} keys locally"
        )
        assert session.server_hits == warmed, (
            f"{session.server_hits} warm hits for {warmed} warm keys "
            "— the restarted daemon lost persisted records"
        )
        restarted_searches = _searches(addr)
        assert session.server_tunes == cold and restarted_searches == cold, (
            f"restarted daemon searched {restarted_searches} keys for "
            f"{cold} cold keys — work was lost or repeated"
        )
        mismatched = sum(
            1
            for key, expected in reference["_records"].items()
            if session.cache.lookup(key).to_json() != expected
        )
        assert mismatched == 0, (
            f"{mismatched} records diverged from single-process tuning"
        )
        with ServiceClient(addr, timeout=5.0) as client:
            store = client.stats()["store"]
            client.shutdown()
        assert store["corrupt_lines"] == 0 and store["stale_records"] == 0
        assert proc.wait(timeout=30) == 0
        session.close()
        return {
            "layers": len(layers),
            "warmed_keys": warmed,
            "cold_keys": cold,
            "warm_phase_s": warm_s,
            "restart_s": restart_s,
            "restart_sweep_s": sweep_s,
            "client_searches": session.searches_run,
            "restarted_searches": restarted_searches,
            "server_hits": session.server_hits,
            "mismatched_records": mismatched,
            "killed_fsck": report,
        }
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()


def _sweep(session, layers):
    runner = UnitCpuRunner(session=session)
    for params in layers:
        runner.conv2d_latency(params)


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--layers", type=int, default=8, help="Table I layers in the shared slice"
    )
    parser.add_argument(
        "--clients", type=int, default=4, help="concurrent remote clients"
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run only the restart drill: SIGKILL the daemon, restart it, sweep",
    )
    parser.add_argument("-o", "--output", default="BENCH_service.json")
    args = parser.parse_args(argv)

    layers = TABLE1_LAYERS[: args.layers]
    single = bench_single_process(layers)
    print(
        f"single process   : {single['elapsed_s'] * 1e3:8.1f} ms  "
        f"({single['searches']} searches, {single['trials']} trials)"
    )

    if args.chaos:
        with tempfile.TemporaryDirectory(prefix="bench_chaos.") as root:
            chaos = bench_chaos_restart(root, layers, single)
        print(
            f"chaos restart    : {chaos['restart_sweep_s'] * 1e3:8.1f} ms  "
            f"daemon killed after {chaos['warmed_keys']} warm keys; "
            f"{chaos['server_hits']} hits, "
            f"{chaos['restarted_searches']} searches after restart, "
            f"{chaos['mismatched_records']} mismatched"
        )
        single.pop("_records")
        report = {
            "benchmark": "tuning_service_chaos",
            "single_process": single,
            "chaos_restart": chaos,
        }
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
        from repro.telemetry.resultsdb import record_bench

        run_id = record_bench("service_chaos", report)
        print(f"wrote {args.output} (results-DB run {run_id})")
        return report

    with tempfile.TemporaryDirectory(prefix="bench_service.") as root:
        coalesced = bench_coalesced_clients(
            f"{root}/store-coalesce", layers, args.clients, single
        )
        print(
            f"{coalesced['clients']} remote clients : "
            f"{coalesced['elapsed_s'] * 1e3:8.1f} ms  "
            f"{coalesced['server_searches']} searches for "
            f"{coalesced['unique_keys']} keys "
            f"({coalesced['coalesced_waiters']} coalesced, "
            f"{coalesced['mismatched_records']} mismatched)"
        )

    single.pop("_records")
    report = {
        "benchmark": "tuning_service",
        "single_process": single,
        "coalesced_clients": coalesced,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    from repro.telemetry.resultsdb import record_bench

    run_id = record_bench("service", report)
    print(f"wrote {args.output} (results-DB run {run_id})")
    return report


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
