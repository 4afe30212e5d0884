"""The tuning daemon under load: reads, writes and searches on one store.

One daemon subprocess (``python -m repro.service serve --no-speculate
--strategy exhaustive``) serves two closed-loop client threads with one
connection each — every client sends its next request when the last one
returned — which matches the sandbox's two vCPUs (with one client the
ping-pong wake-ups never let the calibrated ratio settle).

Set-up is the *cold* measurement: the daemon starts on an empty store and
two clients sweep the zoo through it, so every one of the 143 distinct x86
keys becomes a coalesced server-side search and an fsynced append.  Rounds
then time two ``get`` bursts (2 x 500 over the 143 keys each, half a round
apart) and, on the service workload and traced runs, a ``put`` burst, a warm
zoo sweep through fresh ``RemoteSession``s, and every fourth round a cold
sweep against a fresh daemon.

Every served record must equal, as JSON, the record a local
``TuningSession`` produced for that key, and the daemon must have searched
each distinct key exactly once.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import threading
import time
from typing import List, Optional, Sequence, Tuple

from repro.core import compile_model
from repro.models.zoo import EVALUATED_MODELS, get_model
from repro.rewriter import ShardedTuningStore, TuningSession
from repro.service import RemoteSession, ServiceClient, ServiceError, protocol

from .checks import same_record
from .harness import Context, Section

CLIENTS = 2
GETS_PER_CLIENT = 500
PUTS_PER_BURST = 100
COLD_SWEEP_EVERY = 4  # rounds
START_TIMEOUT_S = 60.0
_TICK = os.sysconf("SC_CLK_TCK")


class Daemon:
    """One ``repro.service serve`` subprocess on an OS-assigned port."""

    def __init__(self, root: str) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "serve",
                "--root", root, "--port", "0", "--no-speculate", "--strategy", "exhaustive",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            bufsize=1,
        )
        self.address: Optional[Tuple[str, int]] = None
        try:
            self.address = self._read_address()
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started

    def _read_address(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            line = self.process.stdout.readline()
            if not line:
                break
            if "listening on " in line:
                endpoint = line.split("listening on ", 1)[1].split(" over ", 1)[0].strip()
                host, _, port = endpoint.rpartition(":")
                return host, int(port)
        raise RuntimeError(f"tuning daemon did not start (exit code {self.process.poll()})")

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICK  # utime + stime

    def stats(self) -> dict:
        with ServiceClient(self.address) as client:
            return client.stats()

    def stop(self) -> None:
        """Ask the daemon to shut down, then make sure it has ended."""
        if self.process.poll() is None:
            try:
                if self.address is None:
                    raise ConnectionError("the daemon never reported an address")
                with ServiceClient(self.address, retries=0, timeout=5.0) as client:
                    client.shutdown()
                self.process.wait(timeout=15)
            except (OSError, ServiceError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait(timeout=15)
        if self.process.stdout is not None:
            self.process.stdout.close()


def _in_threads(targets: Sequence) -> List[BaseException]:
    """Run the callables concurrently; returns what they raised."""
    errors: List[BaseException] = []

    def guarded(fn):
        try:
            fn()
        except Exception as exc:  # reported by the caller as failed operations
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(fn,)) for fn in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


class Service(Section):
    family = "service"

    def setup(self, ctx: Context) -> None:
        self.daemons: List[Daemon] = []
        self.clients: List[ServiceClient] = []
        self.graphs = {name: get_model(name) for name in EVALUATED_MODELS}
        # The local answer sheet: one in-process session tunes the zoo.
        local = TuningSession()
        for name in EVALUATED_MODELS:
            compile_model(self.graphs[name], target="x86", session=local)
        self.records = list(local.cache.records())
        self.expected = {record.key: record.to_json() for record in self.records}
        self.keys = [record.key for record in self.records]
        order = ctx.rng("service-models").permutation(len(EVALUATED_MODELS))
        names = [EVALUATED_MODELS[i] for i in order]
        self.shares = [names[i::CLIENTS] for i in range(CLIENTS)]
        self.key_rng = ctx.rng("service-keys")
        self.store_root = os.path.join(ctx.scratch, "stores")
        self.rounds = 0
        self.daemon_cpu = self.client_cpu = self.burst_wall = 0.0
        self.lock_wait = self.put_wall = 0.0

        self.main = self._start_daemon("main")
        ctx.set("svc.start_s", self.main.start_s)
        cold_ms = self._cold_sweep(ctx, self.main)
        if cold_ms is not None:
            ctx.add("svc_tune_sweep_ms", cold_ms)
        stats = self.main.stats()
        ctx.set("svc.searches_total", stats["session"]["searches_run"])
        ctx.set("svc.coalesced_waiters", stats["service"]["coalesced_waiters"])
        self.clients = [ServiceClient(self.main.address) for _ in range(CLIENTS)]

    def _start_daemon(self, name: str) -> Daemon:
        daemon = Daemon(os.path.join(self.store_root, f"{name}-{len(self.daemons)}"))
        self.daemons.append(daemon)
        return daemon

    def _sweep(self, address, names: Sequence[str]) -> RemoteSession:
        session = RemoteSession(address, tune_timeout=120.0)
        try:
            for name in names:
                compile_model(self.graphs[name], target="x86", session=session)
        finally:
            session.close()
        return session

    def _check_session(self, ctx: Context, session: RemoteSession, what: str) -> None:
        for record in session.cache.records():
            ctx.check(
                same_record(record.to_json(), self.expected.get(record.key, {})),
                f"{what}: record for {record.key} differs from the locally tuned one",
            )

    def _cold_sweep(self, ctx: Context, daemon: Daemon) -> Optional[float]:
        """Two clients sweep the zoo through a daemon with an empty store."""
        sessions: List[RemoteSession] = []

        def sweep():
            return _in_threads(
                [lambda s=share: sessions.append(self._sweep(daemon.address, s)) for share in self.shares]
            )

        errors, sample = ctx.clock.timed("svc.cold_sweep", sweep)
        for exc in errors:
            ctx.check(False, f"cold sweep client: {type(exc).__name__}: {exc}")
        for session in sessions:
            self._check_session(ctx, session, "cold sweep")
        searched = daemon.stats()["session"]["searches_run"]
        ctx.check(
            searched == len(self.keys),
            f"cold sweep: {searched} server-side searches for {len(self.keys)} distinct keys",
        )
        return None if errors else sample.norm * 1e3

    # -- the window ------------------------------------------------------------
    def get_burst(self, ctx: Context) -> None:
        picks = [
            [self.keys[i] for i in self.key_rng.integers(0, len(self.keys), GETS_PER_CLIENT)]
            for _ in self.clients
        ]
        latencies: List[List[float]] = [[] for _ in self.clients]
        served: List[list] = [[] for _ in self.clients]

        def client_loop(index: int) -> None:
            client, times, got = self.clients[index], latencies[index], served[index]
            for key in picks[index]:
                started = time.perf_counter()
                record = client.get(key)
                times.append(time.perf_counter() - started)
                got.append(record)

        def burst():
            return _in_threads([lambda i=i: client_loop(i) for i in range(len(self.clients))])

        daemon_before, own_before = self.main.cpu_seconds(), time.process_time()
        errors, sample = ctx.clock.timed("svc.get_burst", burst)
        self.daemon_cpu += self.main.cpu_seconds() - daemon_before
        self.client_cpu += time.process_time() - own_before
        self.burst_wall += sample.raw
        for exc in errors:
            ctx.check(False, f"get burst client: {type(exc).__name__}: {exc}")
        for keys, records in zip(picks, served):
            for key, record in zip(keys, records):
                ctx.check(
                    record is not None and same_record(record.to_json(), self.expected[key]),
                    f"get {key}: served record differs from the locally tuned one",
                )
        everything = sorted(t for times in latencies for t in times)
        if errors or not everything:
            return
        scale = sample.norm / sample.raw
        requests = len(everything)
        ctx.add("svc_get_rps", requests / sample.norm)
        ctx.add("svc_get_rps.raw", requests / sample.raw)
        p99 = everything[min(requests - 1, int(0.99 * requests))]
        ctx.add("svc_get_ms_p99", p99 * scale * 1e3)
        ctx.add("svc_get_ms_p99.raw", p99 * 1e3)
        ctx.add("svc_get_ms_p50", everything[requests // 2] * scale * 1e3)
        ctx.add("svc_get_ms_p90", everything[int(0.9 * requests)] * scale * 1e3)

    def _put_burst(self, ctx: Context) -> None:
        picks = [self.records[i] for i in self.key_rng.integers(0, len(self.records), PUTS_PER_BURST)]

        def burst():
            with ServiceClient(self.main.address) as client:
                for record in picks:
                    client.put(record)

        waited = self.main.stats()["store"]["lock_wait_seconds"]
        try:
            _, sample = ctx.clock.timed("svc.put_burst", burst)
        except Exception as exc:
            ctx.check(False, f"put burst: {type(exc).__name__}: {exc}")
            return
        self.lock_wait += self.main.stats()["store"]["lock_wait_seconds"] - waited
        self.put_wall += sample.raw
        ctx.add("svc_put_rps", PUTS_PER_BURST / sample.norm)
        with ServiceClient(self.main.address) as client:
            back = client.get(picks[-1].key)
        ctx.check(
            back is not None and same_record(back.to_json(), self.expected[picks[-1].key]),
            "put burst: the record read back differs from the one written",
        )

    def _warm_sweep(self, ctx: Context) -> None:
        try:
            session, sample = ctx.clock.timed(
                "svc.warm_sweep", lambda: self._sweep(self.main.address, EVALUATED_MODELS)
            )
        except Exception as exc:
            ctx.check(False, f"warm sweep: {type(exc).__name__}: {exc}")
            return
        self._check_session(ctx, session, "warm sweep")
        ctx.check(
            session.server_hits == len(self.keys) and session.searches_run == 0
            and session.server_tunes == 0,
            f"warm sweep: {session.server_hits} server hits, {session.server_tunes} server tunes, "
            f"{session.searches_run} local searches",
        )
        ctx.add("svc_warm_sweep_ms", sample.norm * 1e3)

    def round(self, ctx: Context) -> None:
        self.rounds += 1
        self.get_burst(ctx)
        if not ctx.extras(self.family):
            return
        self._put_burst(ctx)
        self._warm_sweep(ctx)
        if self.rounds % COLD_SWEEP_EVERY == 0:
            fresh = self._start_daemon("cold")
            try:
                cold_ms = self._cold_sweep(ctx, fresh)
            finally:
                fresh.stop()
            if cold_ms is not None:
                ctx.add("svc_tune_sweep_ms", cold_ms)

    # -- one-off probes --------------------------------------------------------
    def finish(self, ctx: Context) -> None:
        ctx.set("svc.retries_total", sum(client.reconnects - 1 for client in self.clients))
        if not ctx.extras(self.family):
            return
        ctx.set("svc.daemon_cpu_share", self.daemon_cpu / self.burst_wall)
        ctx.set("svc.client_cpu_share", self.client_cpu / self.burst_wall)
        ctx.set("store.lock_wait_share", self.lock_wait / self.put_wall if self.put_wall else 0.0)

        # The wire alone: encode -> socketpair -> decode, no server logic.
        response = protocol.ok_response(found=True, record=self.records[0].to_json())
        ctx.set("protocol.get_frame_bytes", 4 + len(json.dumps(response, sort_keys=True).encode()))
        left, right = socket.socketpair()
        try:
            def roundtrips():
                for _ in range(200):
                    protocol.send_message(left, response)
                    protocol.recv_message(right)

            _, sample = ctx.clock.timed("protocol.roundtrip", roundtrips)
        finally:
            left.close()
            right.close()
        ctx.set("protocol.roundtrip_us", sample.norm / 200 * 1e6)

        # The store alone: fsynced appends and indexed reads, no daemon.
        store = ShardedTuningStore(os.path.join(self.store_root, "direct"))
        _, sample = ctx.clock.timed(
            "store.put", lambda: [store.put(record) for record in self.records]
        )
        ctx.set("store.put_ms", sample.norm / len(self.records) * 1e3)
        found, sample = ctx.clock.timed("store.get", lambda: [store.get(key) for key in self.keys])
        ctx.set("store.get_us", sample.norm / len(self.keys) * 1e6)
        for key, record in zip(self.keys, found):
            ctx.check(
                record is not None and same_record(record.to_json(), self.expected[key]),
                f"store.get {key}: record differs from the one put",
            )
        size = sum(
            os.path.getsize(store.shard_path(index)) for index in range(store.num_shards)
            if os.path.exists(store.shard_path(index))
        )
        ctx.set("store.bytes_per_record", size / len(self.records))

    def close(self) -> None:
        for client in self.clients:
            client.close()
        for daemon in self.daemons:
            daemon.stop()


class MidRoundGets(Section):
    """A second ``get`` burst per round, half a round away from the first.

    ``svc_get_rps`` is the noisiest gated metric (two processes on both
    vCPUs, a calibrator that runs on one), and bursts seconds apart see
    different machine states where back-to-back ones would not.
    """

    family = "service"

    def __init__(self, service: Service) -> None:
        self.service = service

    def setup(self, ctx: Context) -> None:
        """Nothing of its own: the daemon and the clients are ``service``'s."""

    def round(self, ctx: Context) -> None:
        self.service.get_burst(ctx)

