"""The tuning daemon: one warm store, many machines, every key searched once.

:class:`TuningService` is a threaded TCP server wrapping one
:class:`~repro.rewriter.store.ShardedTuningStore` and one
:class:`~repro.rewriter.session.TuningSession`.  Each client connection gets
a handler thread; searches therefore run concurrently across *distinct*
keys, while three mechanisms keep the fleet from duplicating work:

* **read-through** — a ``tune`` or ``get`` first consults the session cache
  and the shard files, so anything ever tuned (by this daemon, a previous
  incarnation, or a local session writing into the same store directory) is
  served without a single trial;
* **in-flight coalescing** — concurrent ``tune`` requests for the same
  :class:`~repro.rewriter.records.TuningKey` share one search: the first
  requester leads it, the rest park on an event and receive the *same*
  record, so each unique key is searched at most once fleet-wide;
* **warm** — a ``warm`` request names a sweep (a model-zoo model,
  ``"table1"`` or ``"table1:K"``) and the daemon tunes all of it before
  answering, so later clients find the whole sweep warm.

The daemon does work only when a request asks for it: a running service
is one accept loop plus one handler thread per connection.

Server-side searches reuse :mod:`repro.rewriter.tasks`: the requested key
is inverted back into a :class:`~repro.rewriter.tasks.TuningTask`
(:func:`task_from_key`) and run through
:func:`~repro.rewriter.tasks.run_task` — the same search every
local session runs — so winners are bit-identical to a single-process local
sweep.  Keys that cannot round-trip (custom candidate lists, library
baselines) are declined with ``code="untunable"`` and the client searches
locally instead — correctness never depends on the server being able to
rebuild the search.  A coalesced waiter whose leader outlives the daemon's
``tune_timeout`` is answered ``code="tune_timeout"`` (the key is tunable,
just not in time), and a daemon that is stopping answers
``code="shutting_down"``.
"""

from __future__ import annotations

import dataclasses
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dsl.expr import expr_cache_stats
from ..core.pipeline import TARGETS
from ..rewriter.records import TuningKey, TuningRecord, decode_record
from ..rewriter.session import TuningSession
from ..rewriter.store import ShardedTuningStore
from ..rewriter.tasks import TuningTask, run_task, task_from_key, tasks_from_graph
from ..telemetry import trace as _trace
from ..testing import faults
from . import protocol

__all__ = [
    "TuningService",
    "ServiceStats",
    "expand_sweep",
    "SHUTTING_DOWN",
]

# The one shutdown message, compared by the tune path to map a woken
# waiter's error onto code="shutting_down" (clients treat that code as an
# outage, not as a declined key).
SHUTTING_DOWN = "daemon is shutting down"
COALESCED_TIMEOUT = "coalesced search timed out"

# Failed-tune reasons that are not a verdict on the key; anything else
# from the tune path means the key cannot be searched server-side.
_TUNE_ERROR_CODES = {SHUTTING_DOWN: "shutting_down", COALESCED_TIMEOUT: "tune_timeout"}


class _LockedStore:
    """A :class:`ShardedTuningStore` handle made safe for handler threads.

    One store *handle* is documented single-threaded (incremental shard
    views, counters); the daemon owns exactly one and serialises every
    operation on it behind a lock.  Attributes are read under the lock too,
    so a property such as ``stats`` is computed in one consistent pass.
    File-level locking still protects the shards from *other processes* —
    this lock only protects the handle.
    """

    def __init__(self, store: ShardedTuningStore) -> None:
        self._store = store
        self._lock = threading.Lock()

    def __getattr__(self, name):
        with self._lock:
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


class _Inflight:
    """One in-progress search: a leader, any number of coalesced waiters."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.record: Optional[TuningRecord] = None
        self.error: Optional[str] = None
        self.waiters = 0


def expand_sweep(name: str) -> List[TuningTask]:
    """The task list a sweep name stands for, for the ``"x86"`` target.

    ``"table1"`` is the Table I layer set and ``"table1:K"`` (``K`` a
    positive integer) its first ``K`` layers; any other name is resolved
    through the model zoo and expanded to the distinct tunable operators
    ``compile_model`` would hit (:func:`tasks_from_graph`).  Anything else
    raises :class:`ValueError` naming the sweep.
    """
    head, colon, count = name.partition(":")
    if head != "table1":
        from ..models.zoo import MODEL_ZOO, get_model

        if name not in MODEL_ZOO:
            raise ValueError(
                f"bad sweep {name!r}: expected 'table1', 'table1:K' or a "
                f"model-zoo name ({', '.join(sorted(MODEL_ZOO))})"
            )
        return tasks_from_graph(get_model(name, fresh=True), target="x86")
    from ..workloads.table1 import TABLE1_LAYERS

    layers = TABLE1_LAYERS
    if colon:
        try:
            k = int(count)
        except ValueError:
            k = 0
        if k < 1:
            raise ValueError(
                f"bad sweep {name!r}: K in 'table1:K' must be a positive integer"
            )
        layers = layers[:k]
    # A target row names the same four fields a task does.
    row = TARGETS["x86"]
    return [
        TuningTask(
            kind="conv2d",
            params=params,
            runner=row.runner,
            machine=row.machine,
            intrinsic=row.intrinsic,
            tuning=row.tuning,
        )
        for params in layers
    ]


class TuningService:
    """A long-running tune/compile daemon over one sharded tuning store.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    ``port=0`` binds an ephemeral port (see :attr:`address` after start).
    """

    def __init__(
        self,
        store_root,
        host: str = "127.0.0.1",
        port: int = 0,
        tune_timeout: float = 300.0,
    ) -> None:
        self.store = _LockedStore(ShardedTuningStore(store_root))
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
        self._gate = threading.Lock()
        self._conns: set = set()
        self._inflight: Dict[TuningKey, _Inflight] = {}
        self._stop = threading.Event()
        self._stop_lock = threading.Lock()
        self._server: Optional[socketserver.ThreadingTCPServer] = None
        self._bound_address: Optional[Tuple[str, int]] = None
        self._accept: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``.  Still answers after :meth:`kill` /
        :meth:`stop` — restart drills bind the new daemon to the dead one's
        port — but not before :meth:`start`."""
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
        self._accept = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="tuning-service-accept",
            daemon=True,
        )
        self._accept.start()
        return self

    def stop(self) -> None:
        """Stop accepting and join the accept loop.

        Idempotent and thread-safe: the shutdown RPC stops the service from
        a daemon thread while the foreground (CLI ``serve``) may call
        ``stop()`` on its way out — whoever arrives second blocks until the
        first finishes.  Every acknowledged ``put`` is already on disk
        (append + fsync), so there is nothing to flush.

        Coalesced ``tune`` waiters parked on an in-flight search are woken
        *now* with a clean ``shutting_down`` error — before the stop lock
        is taken (``_gate`` and ``_stop_lock`` must never nest), and
        without waiting for the leader's search, which may outlive us.
        """
        self._stop.set()
        self._abort_inflight()
        with self._stop_lock:
            if self._server is not None:
                self._server.shutdown()
                self._server.server_close()
                self._server = None
            if self._accept is not None:
                self._accept.join(timeout=10.0)
                self._accept = None

    def kill(self) -> None:
        """Abrupt termination for crash drills: the in-process ``kill -9``.

        No drain, no thread join — the listener closes,
        every live connection is torn down (clients observe a reset, never
        a hang) and coalesced waiters are released.  The store is left
        exactly as the last fsync left it, which is precisely the state
        :meth:`ShardedTuningStore.fsck` and the chaos suite audit.
        """
        self._stop.set()
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
        self._accept = None

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
                    if message.get("op") == "shutdown" and response.get("ok"):
                        # Stop only once the acknowledgement is on the wire:
                        # the CLI process exits as soon as stop() returns.
                        threading.Thread(
                            target=self.stop, name="tuning-service-stop", daemon=True
                        ).start()
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
        self.stats.requests[op] = self.stats.requests.get(op, 0) + 1
        try:
            with _trace.span("service.request", op=str(op)):
                return handler(message)
        except Exception as exc:  # a bad request must not kill the handler
            return protocol.error_response(f"{type(exc).__name__}: {exc}", "server_error")

    # -- operations -----------------------------------------------------------
    def _op_ping(self, message: Dict) -> Dict:
        return protocol.ok_response(server="tuning-service", uptime_s=self._uptime())

    def _op_get(self, message: Dict) -> Dict:
        key = TuningKey.from_json(message["key"])
        record = self.session._lookup(key)
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
            code = _TUNE_ERROR_CODES.get(how, "untunable")
            if code == "untunable":
                self.stats.untunable_keys += 1
            return protocol.error_response(
                how or f"cannot reconstruct a search for {key}", code
            )
        return protocol.ok_response(record=record.to_json(), how=how)

    def _op_stats(self, message: Dict) -> Dict:
        return protocol.ok_response(**self._snapshot())

    def _op_warm(self, message: Dict) -> Dict:
        try:
            tasks = expand_sweep(str(message["sweep"]))
        except ValueError as exc:
            return protocol.error_response(str(exc), "bad_sweep")
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
        # _serve_connection stops the daemon after sending this reply.
        return protocol.ok_response(stopping=True)

    def _snapshot(self) -> Dict:
        """The ``stats`` payload, collected in one pass: the gate is taken
        once for the gate-guarded fields, and ``uptime_s`` is monotonic."""
        cache = self.session.stats
        expr = expr_cache_stats()
        store_stats = self.store.stats.as_dict()
        with self._gate:
            inflight = len(self._inflight)
        return {
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
        }

    def _uptime(self) -> float:
        if self.started_monotonic is not None:
            return time.monotonic() - self.started_monotonic
        return time.time() - self.started_at if self.started_at else 0.0

    # -- coalesced tuning core ------------------------------------------------
    def _tune_key(self, key: TuningKey) -> Tuple[Optional[TuningRecord], Optional[str]]:
        """The record for ``key``, searching at most once fleet-wide.

        Returns ``(record, how)`` where ``how`` is ``"hit"``, ``"searched"``
        or ``"coalesced"`` — or ``(None, reason)`` when no record came back:
        :data:`COALESCED_TIMEOUT` or :data:`SHUTTING_DOWN` for a waiter,
        anything else when the key cannot be tuned server-side.
        """
        with self._gate:
            record = self.session._lookup(key)
            if record is not None:
                return record, "hit"
            entry = self._inflight.get(key)
            if entry is not None:
                leader = False
                entry.waiters += 1
                self.stats.coalesced_waiters += 1
            else:
                entry = self._inflight[key] = _Inflight()
                leader = True
        if not leader:  # joined an existing search
            if not entry.done.wait(self.tune_timeout):
                return None, COALESCED_TIMEOUT
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
        in-flight ``tune`` search for the same key."""
        try:
            key = task.key()
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"
        return self._tune_key(key)

    def summary(self) -> str:
        s = self.stats
        return (
            f"TuningService: {sum(s.requests.values())} requests, {s.searches_led} searches led, "
            f"{s.coalesced_waiters} coalesced waiters"
        )
