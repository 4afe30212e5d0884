"""The tuning daemon: one warm store, many machines, every key searched once.

:class:`TuningService` is a threaded TCP server wrapping one
:class:`~repro.rewriter.store.ShardedTuningStore` and one
:class:`~repro.rewriter.session.TuningSession`.  Each client connection gets
a handler thread; searches therefore run concurrently across *distinct*
keys, while three mechanisms keep the fleet from duplicating work:

* **read-through** — a ``tune`` or ``get`` first consults the session cache
  and the shard files, so anything ever tuned (by this daemon, a previous
  incarnation, or a :class:`~repro.rewriter.workers.DistributedTuner` run
  into the same store directory) is served without a single trial;
* **in-flight coalescing** — concurrent ``tune`` requests for the same
  :class:`~repro.rewriter.records.TuningKey` share one search: the first
  requester leads it, the rest park on an event and receive the *same*
  record, so each unique key is searched at most once fleet-wide;
* **speculative tuning** — a ``tune`` request may name the sweep its key
  belongs to (a model-zoo model, ``"table1"`` or ``"table1:K"``); the
  remaining layers of that sweep are queued and pre-tuned by a background
  thread whenever no foreground request is in flight, so a client compiling
  a model layer by layer finds layers N+1.. already warm.

Server-side searches reuse the :mod:`repro.rewriter.workers` machinery:
the requested key is inverted back into a
:class:`~repro.rewriter.workers.TuningTask` (:func:`task_from_key`) and run
through :func:`~repro.rewriter.workers.run_task` — the same search every
local session runs — so winners are bit-identical to a single-process local
sweep.  Keys that cannot round-trip (custom candidate lists, library
baselines) are declined with ``code="untunable"`` and the client searches
locally instead — correctness never depends on the server being able to
rebuild the search.

A daemon started with ``replicate_from=`` (CLI ``--replicate-from``) runs
as a **replica**: a background thread pulls newly appended shard lines from
the primary over the ordinary wire protocol (the ``sync`` op, incremental
by per-shard byte offset) and re-validates every line through the same
schema/cost-model decode gate the shard files use — a replica never trusts
the primary's opinion of a record.  Replication is one-way (primary ->
replica) and the replica stays fully serviceable: clients that fail over to
it read the synced corpus warm and tune the rest against it directly.  The
``health`` op reports the role, replication lag and inflight depth; it is
what a failover client probes.
"""

from __future__ import annotations

import dataclasses
import socket
import socketserver
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dsl.expr import expr_cache_stats
from ..core.pipeline import TARGETS
from ..hwsim.machine import machine_by_name
from ..rewriter.records import TuningKey, TuningRecord, decode_record
from ..rewriter.session import TuningSession
from ..rewriter.store import ShardedTuningStore
from ..rewriter.workers import TuningTask, run_task, task_from_key, tasks_from_graph
from ..telemetry import metrics as _metrics, trace as _trace
from ..testing import faults
from . import protocol
from .client import ServiceClient, ServiceError, ServiceUnavailable, normalize_addresses

__all__ = [
    "TuningService",
    "ServiceStats",
    "ReplicationStats",
    "expand_sweep",
    "SHUTTING_DOWN",
]

# The one shutdown message, compared by the tune path to map a woken
# waiter's error onto code="shutting_down" (clients treat that code as an
# endpoint outage and fail over instead of declining the key).
SHUTTING_DOWN = "daemon is shutting down"


class _LockedStore:
    """A :class:`ShardedTuningStore` handle made safe for handler threads.

    One store *handle* is documented single-threaded (incremental shard
    views, touch buffer); the daemon owns exactly one and serialises every
    operation on it behind a lock.  File-level locking still protects the
    shards from *other processes* — this lock only protects the handle.
    """

    def __init__(self, store: ShardedTuningStore) -> None:
        self._store = store
        self._lock = threading.Lock()

    def __getattr__(self, name):
        value = getattr(self._store, name)
        if not callable(value):
            return value
        def locked(*args, **kwargs):
            with self._lock:
                return value(*args, **kwargs)
        return locked


@dataclass
class ServiceStats:
    """The daemon's own counters (the ``stats`` endpoint adds session/store
    snapshots around them)."""

    requests: Dict[str, int] = field(default_factory=dict)
    protocol_errors: int = 0
    version_rejections: int = 0
    searches_led: int = 0
    coalesced_waiters: int = 0
    untunable_keys: int = 0
    speculative_queued: int = 0
    speculative_tuned: int = 0
    speculative_skipped: int = 0

    def count(self, op: str) -> None:
        self.requests[op] = self.requests.get(op, 0) + 1


@dataclass
class ReplicationStats:
    """A replica's anti-entropy accounting (all zero on a primary).

    ``records_applied`` counts lines that passed the replica's own decode
    gate and were written through; ``stale_rejected``/``corrupt_rejected``
    count lines the gate refused (a primary on a different cost model shows
    up here, loudly, instead of poisoning the replica).  ``offset_resets``
    counts shards replayed from byte 0 after the primary compacted or
    cleared them.
    """

    syncs: int = 0
    sync_failures: int = 0
    records_applied: int = 0
    stale_rejected: int = 0
    corrupt_rejected: int = 0
    offset_resets: int = 0
    last_sync_unix: Optional[float] = None


class _Inflight:
    """One in-progress search: a leader, any number of coalesced waiters."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.record: Optional[TuningRecord] = None
        self.error: Optional[str] = None
        self.waiters = 0


def expand_sweep(name: str, like: Optional[TuningTask]) -> List[TuningTask]:
    """The task list a sweep name stands for.

    ``"table1"`` is the Table I layer set and ``"table1:K"`` (``K`` a
    positive integer) its first ``K`` layers; any other name is resolved
    through the model zoo and expanded to the distinct tunable operators
    ``compile_model`` would hit.  ``like`` (the task of the request that
    named the sweep) supplies the runner, machine, intrinsic and tuning mode
    for either kind of sweep, so speculation warms exactly the records the
    requester's siblings will look up; without it the sweep is expanded for
    the ``"x86"`` target.  Anything else raises :class:`ValueError` naming
    the sweep.
    """
    # A target row names the same four fields a task does.
    named = like if like is not None else TARGETS["x86"]
    head, colon, count = name.partition(":")
    if head == "table1":
        from ..workloads.table1 import TABLE1_LAYERS

        workloads = [("conv2d", params) for params in TABLE1_LAYERS]
        if colon:
            try:
                k = int(count)
            except ValueError:
                k = 0
            if k < 1:
                raise ValueError(
                    f"bad sweep {name!r}: K in 'table1:K' must be a positive integer"
                )
            workloads = workloads[:k]
    else:
        from ..models.zoo import MODEL_ZOO, get_model

        if name not in MODEL_ZOO:
            raise ValueError(
                f"bad sweep {name!r}: expected 'table1', 'table1:K' or a "
                f"model-zoo name ({', '.join(sorted(MODEL_ZOO))})"
            )
        # The requester's machine names the target, hence the graph passes.
        spec = machine_by_name(named.machine)
        target = next(t for t, row in TARGETS.items() if machine_by_name(row.machine) is spec)
        workloads = [
            (task.kind, task.params)
            for task in tasks_from_graph(get_model(name, fresh=True), target=target)
        ]
    return [
        TuningTask(
            kind=kind,
            params=params,
            runner=named.runner,
            machine=named.machine,
            intrinsic=named.intrinsic,
            tuning=named.tuning,
        )
        for kind, params in workloads
    ]


class TuningService:
    """A long-running tune/compile daemon over one sharded tuning store.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    ``port=0`` binds an ephemeral port (see :attr:`address` after start).

    ``replicate_from`` (an address, ``(host, port)`` or ``"host:port"``)
    runs this daemon as a replica of that primary: a background thread
    pulls appended shard lines every ``sync_interval_s`` seconds through
    the ``sync`` op and ingests them through the decode gate.  A replica
    still serves and tunes like any daemon — replication only keeps its
    corpus converging on the primary's.
    """

    def __init__(
        self,
        store_root,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: int = 8,
        speculative: bool = True,
        speculative_idle_s: float = 0.02,
        tune_timeout: float = 300.0,
        replicate_from=None,
        sync_interval_s: float = 0.25,
    ) -> None:
        self.store = _LockedStore(ShardedTuningStore(store_root, shards=shards))
        self.session = TuningSession(store=self.store)
        self.host = host
        self.port = port
        self.stats = ServiceStats()
        self.tune_timeout = tune_timeout
        self.started_at: Optional[float] = None
        # Monotonic twin of started_at: uptime_s must never jump when the
        # host clock steps (NTP slew, manual set), so the wire responses
        # derive it from time.monotonic(), not wall-clock arithmetic.
        self.started_monotonic: Optional[float] = None
        self.replicate_from: Optional[Tuple[str, int]] = (
            normalize_addresses(replicate_from)[0] if replicate_from is not None else None
        )
        self.sync_interval_s = sync_interval_s
        self.replication = ReplicationStats()
        self._sync_offsets: Dict[int, int] = {}  # sync-thread-private
        self._gate = threading.Lock()
        self._conns: set = set()
        self._inflight: Dict[TuningKey, _Inflight] = {}
        self._foreground = 0
        self._spec_enabled = speculative
        self._spec_idle = speculative_idle_s
        self._spec_queue: deque = deque()
        self._spec_queued_ids: set = set()
        self._spec_wake = threading.Event()
        self._stop = threading.Event()
        self._stop_lock = threading.Lock()
        self._server: Optional[socketserver.ThreadingTCPServer] = None
        self._bound_address: Optional[Tuple[str, int]] = None
        self._threads: List[threading.Thread] = []

    # -- lifecycle ------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``.  Still answers after :meth:`kill` /
        :meth:`stop` — failover drills need the dead endpoint's address to
        hand to clients — but not before :meth:`start`."""
        if self._server is not None:
            return self._server.server_address[:2]
        if self._bound_address is not None:
            return self._bound_address
        raise RuntimeError("the service is not started")

    def start(self) -> "TuningService":
        if self._server is not None:
            raise RuntimeError("the service is already started")
        service = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                service._serve_connection(self.request)

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server((self.host, self.port), Handler)
        self._bound_address = self._server.server_address[:2]
        self.started_at = time.time()
        self.started_monotonic = time.monotonic()
        # No-ops unless a MetricsRegistry is installed in this process; the
        # dataclasses stay the single source of truth for both views.
        _metrics.register_stats_gauges("service", self.stats)
        with self._gate:
            _metrics.register_stats_gauges("service.replication", self.replication)
        serve = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="tuning-service-accept",
            daemon=True,
        )
        serve.start()
        self._threads.append(serve)
        if self._spec_enabled:
            spec = threading.Thread(
                target=self._speculate_forever, name="tuning-service-speculate", daemon=True
            )
            spec.start()
            self._threads.append(spec)
        if self.replicate_from is not None:
            sync = threading.Thread(
                target=self._replicate_forever, name="tuning-service-sync", daemon=True
            )
            sync.start()
            self._threads.append(sync)
        return self

    def stop(self) -> None:
        """Stop accepting, wake the speculative thread, flush the store.

        Idempotent and thread-safe: the shutdown RPC stops the service from
        a daemon thread while the foreground (CLI ``serve``) may call
        ``stop()`` on its way out — whoever arrives second blocks until the
        first finishes, so the process cannot exit before the last-served
        touch buffer reaches disk.

        Coalesced ``tune`` waiters parked on an in-flight search are woken
        *now* with a clean ``shutting_down`` error — before the stop lock
        is taken (``_gate`` and ``_stop_lock`` must never nest), and
        without waiting for the leader's search, which may outlive us.
        """
        self._stop.set()
        self._spec_wake.set()
        self._abort_inflight()
        with self._stop_lock:
            if self._server is not None:
                self._server.shutdown()
                self._server.server_close()
                self._server = None
            for thread in self._threads:
                thread.join(timeout=10.0)
            self._threads = []
            self.store.flush_touches()

    def kill(self) -> None:
        """Abrupt termination for crash drills: the in-process ``kill -9``.

        No drain, no thread join, no touch flush — the listener closes,
        every live connection is torn down (clients observe a reset, never
        a hang) and coalesced waiters are released.  The store is left
        exactly as the last fsync left it, which is precisely the state
        :meth:`ShardedTuningStore.fsck` and the chaos suite audit.
        """
        self._stop.set()
        self._spec_wake.set()
        self._abort_inflight()
        with self._stop_lock:
            server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        with self._gate:
            conns = list(self._conns)
        for sock in conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._threads = []

    def _abort_inflight(self) -> None:
        """Release every parked coalesced waiter with the shutdown error.

        The leader's search itself is not interrupted (searches are pure
        compute; its handler thread is a daemon) — but nobody new should
        wait on it, so the inflight table is emptied as well.
        """
        with self._gate:
            entries = list(self._inflight.values())
            self._inflight.clear()
        for entry in entries:
            if not entry.done.is_set():
                entry.error = SHUTTING_DOWN
                entry.done.set()

    def __enter__(self) -> "TuningService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def serve_until_stopped(self, poll_s: float = 0.2) -> None:
        """Block the calling thread until a ``shutdown`` request (CLI mode)."""
        while not self._stop.wait(poll_s):
            pass

    # -- connection loop ------------------------------------------------------
    def _serve_connection(self, sock: socket.socket) -> None:
        with self._gate:
            self._conns.add(sock)
        try:
            while not self._stop.is_set():
                try:
                    message = protocol.recv_message(sock)
                except protocol.ConnectionClosed:
                    return
                except protocol.ProtocolError as exc:
                    self.stats.protocol_errors += 1
                    try:
                        protocol.send_message(
                            sock, protocol.error_response(str(exc), "protocol_error")
                        )
                    except OSError:
                        pass
                    return
                except OSError:
                    return  # the connection was torn down under us (kill())
                response = self._dispatch(message)
                try:
                    faults.fire("server.respond", sock=sock, response=response)
                    protocol.send_message(sock, response)
                except OSError:
                    return
        finally:
            with self._gate:
                self._conns.discard(sock)

    def _dispatch(self, message: Dict) -> Dict:
        mismatch = protocol.check_versions(message)
        if mismatch is not None:
            self.stats.version_rejections += 1
            return protocol.error_response(*mismatch)
        if self._stop.is_set():
            # A draining daemon answers every request the same way a woken
            # coalesced waiter is answered: clean, coded, immediately.
            return protocol.error_response(SHUTTING_DOWN, "shutting_down")
        op = message.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if op not in protocol.OPS or handler is None:
            return protocol.error_response(f"unknown op {op!r}", "unknown_op")
        self.stats.count(op)
        _metrics.event("service.requests", str(op))
        registry = _metrics.active()
        started = time.perf_counter() if registry is not None else 0.0
        with self._gate:
            self._foreground += 1
        try:
            with _trace.span("service.request", op=str(op)):
                return handler(message)
        except Exception as exc:  # a bad request must not kill the handler
            return protocol.error_response(f"{type(exc).__name__}: {exc}", "server_error")
        finally:
            with self._gate:
                self._foreground -= 1
            if registry is not None:
                registry.observe("service.request_s", time.perf_counter() - started)

    # -- operations -----------------------------------------------------------
    def _op_ping(self, message: Dict) -> Dict:
        return protocol.ok_response(server="tuning-service", uptime_s=self._uptime())

    def _op_get(self, message: Dict) -> Dict:
        key = TuningKey.from_json(message["key"])
        record = self.session._lookup(key)
        if record is not None:
            # A memory-tier hit must still advance the store's last-served
            # clock, or LRU GC would evict exactly the hottest records.
            self.store.touch(key)
        return protocol.ok_response(
            found=record is not None,
            record=record.to_json() if record is not None else None,
        )

    def _op_put(self, message: Dict) -> Dict:
        # Validate through the same gate the shard files use, so a stale
        # or malformed record is rejected at the door, not persisted.
        record, problem = decode_record(message["record"])
        if record is None:
            return protocol.error_response(
                f"record rejected: {problem}", problem or "corrupt"
            )
        self.session.cache.insert(record)
        self.store.put(record)
        return protocol.ok_response(stored=True)

    def _op_tune(self, message: Dict) -> Dict:
        key = TuningKey.from_json(message["key"])
        record, how = self._tune_key(key)
        if record is None:
            if how == SHUTTING_DOWN:
                return protocol.error_response(SHUTTING_DOWN, "shutting_down")
            self.stats.untunable_keys += 1
            return protocol.error_response(
                how or f"cannot reconstruct a search for {key}", "untunable"
            )
        extra = {}
        sweep = message.get("sweep")
        if sweep:
            # A bad hint must not fail the tune request, only be reported.
            try:
                tasks = expand_sweep(str(sweep), task_from_key(key))
            except ValueError as exc:
                extra["sweep_error"] = str(exc)
            else:
                for task in tasks:
                    self._enqueue_task(task)
        return protocol.ok_response(record=record.to_json(), how=how, **extra)

    def _op_stats(self, message: Dict) -> Dict:
        return protocol.ok_response(**self._snapshot())

    def _op_gc(self, message: Dict) -> Dict:
        report = self.store.evict(
            max_records=message.get("max_records"),
            max_idle=message.get("max_idle"),
        )
        # The memory tier must forget what the store evicted, or this daemon
        # would keep serving records the fleet's GC policy retired.
        for key in report.pop("evicted_keys"):
            self.session.cache.discard(key)
        return protocol.ok_response(**report)

    def _op_warm(self, message: Dict) -> Dict:
        try:
            tasks = expand_sweep(str(message["sweep"]), like=None)
        except ValueError as exc:
            return protocol.error_response(str(exc), "bad_sweep")
        if message.get("background"):
            queued = sum(1 for task in tasks if self._enqueue_task(task))
            return protocol.ok_response(queued=queued, tasks=len(tasks))
        tuned = 0
        hits = 0
        for task in tasks:
            before = self.session.searches_run
            record, how = self._tune_task(task)
            if record is None:
                return protocol.error_response(how or "warm task failed", "untunable")
            if self.session.searches_run > before:
                tuned += 1
            else:
                hits += 1
        return protocol.ok_response(tasks=len(tasks), tuned=tuned, hits=hits)

    def _op_shutdown(self, message: Dict) -> Dict:
        threading.Thread(target=self.stop, name="tuning-service-stop", daemon=True).start()
        return protocol.ok_response(stopping=True)

    def _op_sync(self, message: Dict) -> Dict:
        """Serve the anti-entropy feed: raw lines appended since the
        caller's per-shard byte offsets (see
        :meth:`ShardedTuningStore.read_shard_since`).  Lines travel
        unvalidated on purpose — the *replica's* decode gate is the
        authority on what it ingests."""
        offsets = message.get("offsets") or {}
        shards: Dict[str, Dict] = {}
        for index in range(self.store.num_shards):
            try:
                start = int(offsets.get(str(index), 0))
            except (TypeError, ValueError):
                start = 0
            records, new_offset, reset = self.store.read_shard_since(index, start)
            shards[str(index)] = {
                "records": records,
                "offset": new_offset,
                "reset": reset,
            }
        return protocol.ok_response(shards=shards, role=self._role())

    def _op_health(self, message: Dict) -> Dict:
        """The failover probe: the same unified snapshot ``stats`` serves."""
        return protocol.ok_response(**self._snapshot())

    def _snapshot(self) -> Dict:
        """One consistent view behind both the ``stats`` and ``health`` ops.

        Before this existed the two endpoints gathered overlapping fields
        independently, so the memory-tier counters one returned could
        disagree with the store counters the other returned *within a
        single client call*.  Now everything is collected in one pass —
        the gate is taken exactly once for the gate-guarded fields — and
        both wire ops serve the identical payload, including the monotonic
        ``uptime_s`` and the telemetry counter snapshot.
        """
        cache = self.session.stats
        expr = expr_cache_stats()
        store_stats = self.store.stats.as_dict()
        with self._gate:
            inflight = len(self._inflight)
            queued = len(self._spec_queue)
            foreground = self._foreground
            replication = dataclasses.asdict(self.replication)
        payload: Dict = {
            "role": self._role(),
            "uptime_s": self._uptime(),
            "shutting_down": self._stop.is_set(),
            "service": dataclasses.asdict(self.stats),
            "session": {
                "records": cache.size,
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": cache.hit_rate,
                "store_hits": self.session.store_hits,
                "trials_run": self.session.trials_run,
                "searches_run": self.session.searches_run,
            },
            "store": store_stats,
            "expr_cache": {
                f.name: getattr(expr, f.name) for f in dataclasses.fields(expr)
            },
            "inflight": inflight,
            "foreground": foreground,
            "speculative_queue": queued,
            "telemetry": _metrics.snapshot_counters(),
        }
        if self.replicate_from is not None:
            last = replication.get("last_sync_unix")
            replication["lag_s"] = (time.time() - last) if last else None
            replication["primary"] = list(self.replicate_from)
            payload["replication"] = replication
        return payload

    def _role(self) -> str:
        return "replica" if self.replicate_from is not None else "primary"

    def _uptime(self) -> float:
        if self.started_monotonic is not None:
            return time.monotonic() - self.started_monotonic
        return time.time() - self.started_at if self.started_at else 0.0

    # -- replication (replica role) -------------------------------------------
    def _replicate_forever(self) -> None:
        """The replica's anti-entropy loop: pull, validate, ingest, sleep.

        One pull per ``sync_interval_s``; an unreachable primary counts a
        failure and waits for the next tick (the loop *is* the retry
        schedule, so the client itself runs with no retries).  The loop
        never takes the store's shard locks and the service's ``_gate``
        at the same time — stats updates happen after ingestion.
        """
        client = ServiceClient(self.replicate_from, timeout=5.0, retries=0)
        try:
            while not self._stop.is_set():
                try:
                    self._sync_once(client)
                except (ServiceUnavailable, ServiceError, OSError):
                    with self._gate:
                        self.replication.sync_failures += 1
                self._stop.wait(self.sync_interval_s)
        finally:
            client.close()

    def _sync_once(self, client: ServiceClient) -> None:
        offsets = {str(index): offset for index, offset in self._sync_offsets.items()}
        response = client.request("sync", offsets=offsets)
        applied = stale = corrupt = resets = 0
        for name, shard in sorted(response.get("shards", {}).items()):
            for data in shard.get("records", ()):
                # The same gate the shard files and `put` use: schema +
                # cost-model fingerprint.  A mismatched primary is counted,
                # not ingested.
                record, problem = decode_record(data)
                if record is None:
                    if problem == "stale":
                        stale += 1
                    else:
                        corrupt += 1
                    continue
                self.session.cache.insert(record)
                self.store.put(record)
                applied += 1
            try:
                index = int(name)
            except ValueError:
                continue
            self._sync_offsets[index] = int(shard.get("offset", 0))
            if shard.get("reset"):
                resets += 1
        with self._gate:
            stats = self.replication
            stats.syncs += 1
            stats.records_applied += applied
            stats.stale_rejected += stale
            stats.corrupt_rejected += corrupt
            stats.offset_resets += resets
            stats.last_sync_unix = time.time()
        _metrics.count("service.replication.syncs")
        if applied:
            _metrics.count("service.replication.records_applied", applied)

    # -- coalesced tuning core ------------------------------------------------
    def _tune_key(self, key: TuningKey) -> Tuple[Optional[TuningRecord], Optional[str]]:
        """The record for ``key``, searching at most once fleet-wide.

        Returns ``(record, how)`` where ``how`` is ``"hit"``, ``"searched"``
        or ``"coalesced"`` — or ``(None, reason)`` when the key cannot be
        tuned server-side.
        """
        with self._gate:
            record = self.session._lookup(key)
            if record is not None:
                self.store.touch(key)  # memory hits feed the GC clock too
                return record, "hit"
            entry = self._inflight.get(key)
            if entry is not None:
                leader = False
                entry.waiters += 1
                self.stats.coalesced_waiters += 1
                _metrics.count("service.coalesced_waiters")
            else:
                entry = self._inflight[key] = _Inflight()
                leader = True
        if not leader:  # joined an existing search
            if not entry.done.wait(self.tune_timeout):
                return None, "coalesced search timed out"
            if entry.error is not None:
                return None, entry.error
            return entry.record, "coalesced"
        return self._lead_search(key, entry)

    def _lead_search(
        self, key: TuningKey, entry: _Inflight
    ) -> Tuple[Optional[TuningRecord], Optional[str]]:
        try:
            faults.fire("server.tune", service=self, key=key)
            task = task_from_key(key)
            if task is None:
                entry.error = f"key does not name a rebuildable search: {key}"
                return None, entry.error
            run_task(task, self.session)
            record = self.session.cache.lookup(key)
            if record is None:
                # The rebuilt runner generated a different space digest —
                # the client used a custom candidate list.  Its extra record
                # is harmless; the requested key stays the client's job.
                entry.error = (
                    "rebuilt search space does not match the requested key "
                    f"(custom candidates?): {key.space}"
                )
                return None, entry.error
            entry.record = record
            self.stats.searches_led += 1
            return record, "searched"
        except Exception as exc:
            entry.error = f"{type(exc).__name__}: {exc}"
            return None, entry.error
        finally:
            with self._gate:
                self._inflight.pop(key, None)
            entry.done.set()

    def _tune_task(self, task: TuningTask) -> Tuple[Optional[TuningRecord], Optional[str]]:
        """Tune a task we already hold (the warm path), coalescing with any
        in-flight foreground search for the same key."""
        try:
            key = task.key()
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"
        return self._tune_key(key)

    # -- speculation ----------------------------------------------------------
    def _enqueue_task(self, task: TuningTask) -> bool:
        identity = task.identity
        with self._gate:
            if identity in self._spec_queued_ids:
                return False
            self._spec_queued_ids.add(identity)
            self._spec_queue.append(task)
            self.stats.speculative_queued += 1
        self._spec_wake.set()
        return True

    def _speculate_forever(self) -> None:
        """Drain the speculative queue whenever the foreground is idle.

        Foreground requests always win: a queued task is only started when
        no request handler is active, and each task re-checks the cache
        right before tuning (a foreground client may have caused it to be
        tuned meanwhile — that is a *skip*, not a search).
        """
        while not self._stop.is_set():
            self._spec_wake.wait(timeout=0.2)
            if self._stop.is_set():
                return
            with self._gate:
                busy = self._foreground > 0
                task = self._spec_queue.popleft() if (self._spec_queue and not busy) else None
                if task is not None:
                    # Release the dedup slot: the identity set only guards
                    # the queue itself, so a sweep re-warmed after GC (or a
                    # repeated `warm --background`) enqueues again instead
                    # of no-opping forever.
                    self._spec_queued_ids.discard(task.identity)
                if not self._spec_queue and task is None:
                    self._spec_wake.clear()
            if task is None:
                if busy:
                    time.sleep(self._spec_idle)
                continue
            try:
                key = task.key()
            except Exception:  # the speculation thread must outlive a bad task
                self.stats.speculative_skipped += 1
                continue
            if self.session.cache.lookup(key) is not None:
                self.stats.speculative_skipped += 1
                continue
            before = self.session.searches_run
            record, _ = self._tune_key(key)
            if record is not None and self.session.searches_run > before:
                self.stats.speculative_tuned += 1
            else:
                self.stats.speculative_skipped += 1

    def summary(self) -> str:
        s = self.stats
        return (
            f"TuningService: {sum(s.requests.values())} requests, {s.searches_led} searches led, "
            f"{s.coalesced_waiters} coalesced waiters, "
            f"{s.speculative_tuned} speculative tunes "
            f"({s.speculative_skipped} skipped)"
        )
