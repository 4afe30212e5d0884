"""The tuning service's client side: RPC transport + a drop-in session.

:class:`ServiceClient` is the transport to one daemon: a persistent TCP
connection, length-prefixed JSON frames, per-request timeout, and version
checking on every response.  A transport failure closes the connection and
the request is retried on a :class:`~repro.retry.RetryPolicy` schedule
(capped exponential backoff, deterministic jitter).  When every attempt
fails — or the daemon answers that it is shutting down — the request
raises :class:`ServiceUnavailable`; other server-reported failures raise
:class:`ServiceError` carrying the machine-readable ``code`` (e.g.
``"version_mismatch"``, ``"untunable"``).

:class:`RemoteSession` is the drop-in: a
:class:`~repro.rewriter.session.TuningSession` whose lookup tier order is
**memory -> server -> miss**, so ``compile_model(session=RemoteSession(...))``
and every figure driver in :mod:`repro.core.experiments` tune against the
daemon transparently.  On a miss it first asks the server to run the search
(concurrent requests for one key coalesce — see :mod:`repro.service.server`);
only if the server declines (custom candidate lists, library baselines) or
is unreachable does it search locally.  An outage takes the session offline
for ``offline_cooldown_s``; a protocol version mismatch takes it offline for
good.  While offline, lookups and publishes use an optional local
:class:`~repro.rewriter.store.ShardedTuningStore` — a dead daemon costs
availability of the *shared* corpus, never correctness.
"""

from __future__ import annotations

import socket
import time
import warnings
from typing import Callable, Optional, Sequence, Tuple

from ..hwsim.cost import CostBreakdown
from ..retry import RetryPolicy
from ..rewriter.records import TuningKey, TuningRecord, decode_record
from ..rewriter.session import TuningSession
from ..rewriter.store import ShardedTuningStore
from . import protocol

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "RemoteSession",
    "normalize_addresses",
]

Address = Tuple[str, int]

# What the transport retries: socket-level trouble (ConnectionClosed is a
# ConnectionError, hence an OSError) and torn/malformed frames.  Server
# verdicts (ServiceError) are never transport-retried.
TRANSPORT_ERRORS = (OSError, protocol.ProtocolError)


class ServiceUnavailable(ConnectionError):
    """The daemon could not be reached after retries, or is shutting down."""


class ServiceError(RuntimeError):
    """The daemon answered with an error response."""

    def __init__(self, message: str, code: str = "error") -> None:
        super().__init__(message)
        self.code = code


def normalize_addresses(address) -> Address:
    """A ``(host, port)`` pair or a ``"host:port"`` string -> ``(host, port)``.

    An empty host in the string form means ``127.0.0.1``.  Anything else
    (a list of endpoints included) raises :class:`ValueError`.
    """
    if isinstance(address, str):
        host, sep, port = address.rpartition(":")
        if not sep:
            raise ValueError(f"address {address!r} is not of the form 'host:port'")
        return (host or "127.0.0.1", int(port))
    try:
        host, port = address
    except (TypeError, ValueError):
        host = None
    if not isinstance(host, str):
        raise ValueError(
            f"address {address!r} is not a (host, port) pair or a 'host:port' string"
        )
    return (host, int(port))


class ServiceClient:
    """One connection to one tuning daemon.

    ``address`` is a ``(host, port)`` pair or a ``"host:port"`` string.
    ``timeout`` bounds each socket operation; ``tune_timeout`` bounds the
    blocking ``tune``/``warm`` requests (the server may be running a search
    on our behalf).

    A request that fails in transport closes the connection and is retried
    ``retries`` more times (default 2) on a capped exponential backoff;
    each retry reconnects (counted in :attr:`reconnects`).  When every
    attempt fails, :class:`ServiceUnavailable` carries the last error.

    Not thread-safe: give each thread its own client (connections are cheap;
    records are not).
    """

    def __init__(
        self,
        address,
        timeout: float = 10.0,
        tune_timeout: float = 300.0,
        retries: int = 2,
    ) -> None:
        self.address = normalize_addresses(address)
        self.timeout = timeout
        self.tune_timeout = tune_timeout
        self.retries = retries
        self.retry = RetryPolicy(max_attempts=retries + 1)
        self._sock: Optional[socket.socket] = None
        self.requests_sent = 0
        self.reconnects = 0

    # -- transport ------------------------------------------------------------
    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(self.address, timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self.reconnects += 1
        return self._sock

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close() on a dead socket
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, op: str, *, _timeout: Optional[float] = None, **fields) -> dict:
        """Send one request; returns the ``ok`` response payload.

        Raises :class:`ServiceError` for server-reported failures (no
        retry — the server is healthy, the request is not) and
        :class:`ServiceUnavailable` once every attempt failed in transport,
        or at once when the daemon answers ``shutting_down``.
        """
        message = protocol.request(op, **fields)
        host, port = self.address
        last: Optional[Exception] = None
        for _attempt in self.retry.attempts():
            try:
                sock = self._connect()
                sock.settimeout(_timeout if _timeout is not None else self.timeout)
                protocol.send_message(sock, message)
                response = protocol.recv_message(sock)
                self.requests_sent += 1
            except TRANSPORT_ERRORS as exc:
                self.close()
                last = exc
                continue
            mismatch = protocol.check_versions(response)
            if mismatch is not None:
                raise ServiceError(*mismatch)
            if not response.get("ok"):
                error = str(response.get("error", "request failed"))
                code = str(response.get("code", "error"))
                if code == "shutting_down":
                    self.close()
                    raise ServiceUnavailable(f"tuning service at {host}:{port}: {error}")
                raise ServiceError(error, code)
            return response
        raise ServiceUnavailable(
            f"tuning service unreachable at {host}:{port} after "
            f"{self.retries + 1} attempts: {last}"
        ) from last

    # -- typed operations ------------------------------------------------------
    def ping(self) -> dict:
        return self.request("ping")

    @staticmethod
    def _decode_record(data) -> TuningRecord:
        """Decode a record off the wire through the same gate the shard
        files apply: a winner tuned under a *different cost model* than this
        client's (the schema version is already envelope-checked) is as
        unservable over TCP as it is from disk."""
        record, problem = decode_record(data)
        if record is None:
            code = "stale_record" if problem == "stale" else "corrupt"
            raise ServiceError(f"record rejected: {problem}", code)
        return record

    def get(self, key: TuningKey) -> Optional[TuningRecord]:
        response = self.request("get", key=key.to_json())
        if not response.get("found"):
            return None
        return self._decode_record(response["record"])

    def put(self, record: TuningRecord) -> None:
        self.request("put", record=record.to_json())

    def tune(self, key: TuningKey) -> TuningRecord:
        """Have the *server* produce the record for ``key`` (coalesced).

        Raises :class:`ServiceError` with ``code="untunable"`` when the
        server cannot rebuild the search from the key alone, and with
        ``code="tune_timeout"`` when the search it joined did not finish
        within the server's ``tune_timeout``.
        """
        response = self.request("tune", key=key.to_json(), _timeout=self.tune_timeout)
        return self._decode_record(response["record"])

    def stats(self) -> dict:
        return self.request("stats")

    def warm(self, sweep: str) -> dict:
        """Have the server tune a whole named sweep before answering
        ``{tasks, tuned, hits}`` (see :func:`~repro.service.server.expand_sweep`)."""
        return self.request("warm", sweep=sweep, _timeout=self.tune_timeout)

    def shutdown(self) -> dict:
        return self.request("shutdown")


class RemoteSession(TuningSession):
    """A tuning session backed by a remote daemon: memory -> server -> miss.

    Drop-in for every ``session=`` parameter in the pipeline::

        session = RemoteSession(("tuner.local", 9461), fallback_store="local_store")
        compile_model(get_model("resnet-18"), session=session)

    ``address`` is what :class:`ServiceClient` takes.  On a cache miss the
    session asks the daemon for the record; if the daemon does not have it,
    the daemon *searches for it* (request-coalesced with every other client
    asking for the same key) and only keys the server declines are searched
    locally.  Fresh local records are published back to the server so the
    shared corpus stays warm.

    An outage (:class:`ServiceUnavailable`) takes the session offline for
    ``offline_cooldown_s``, after which the next request probes the daemon
    again (a success clears the outage, a failure restarts it).  While offline,
    lookups and publishes use ``fallback_store`` (a local
    :class:`ShardedTuningStore` or path, optional).  :meth:`force_offline`
    and a protocol version mismatch take the session offline for good.
    """

    def __init__(
        self,
        address,
        fallback_store=None,
        timeout: float = 10.0,
        tune_timeout: float = 300.0,
        retries: int = 2,
        offline_cooldown_s: float = 5.0,
    ) -> None:
        super().__init__()
        self.client = ServiceClient(
            address, timeout=timeout, tune_timeout=tune_timeout, retries=retries
        )
        if fallback_store is not None and not isinstance(fallback_store, ShardedTuningStore):
            fallback_store = ShardedTuningStore(fallback_store)
        self.fallback_store = fallback_store
        self.offline_cooldown_s = offline_cooldown_s
        # time.monotonic() before which the session stays on its local tiers.
        self._offline_until = 0.0
        self.server_hits = 0
        self.server_tunes = 0
        self.server_declines = 0
        self.offline_errors = 0
        self.local_fallbacks = 0
        self.incompatible: Optional[str] = None

    # -- availability ----------------------------------------------------------
    @property
    def online(self) -> bool:
        """Whether the session is currently willing to talk to the daemon."""
        return time.monotonic() >= self._offline_until

    def _mark_down(self) -> None:
        self.offline_errors += 1
        self._offline_until = time.monotonic() + self.offline_cooldown_s

    def _mark_up(self) -> None:
        self._offline_until = 0.0

    def force_offline(self) -> None:
        """Pin the session to its local tiers (drills, tests): every lookup
        and publish uses the fallback store from now on."""
        self._offline_until = float("inf")

    def _note_error(self, exc: ServiceError) -> None:
        """A server-reported error: most are per-request, but a version
        mismatch can never heal within this process — go offline for good
        (activating the fallback-store tier) instead of silently re-tuning
        everything locally and persisting nothing."""
        if exc.code == "version_mismatch" and self.incompatible is None:
            self.incompatible = str(exc)
            self.force_offline()
            host, port = self.client.address
            warnings.warn(
                f"tuning service at {host}:{port} is version-incompatible; "
                f"falling back to local tuning permanently: {exc}",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- lookup tiers ----------------------------------------------------------
    def _lookup(self, key: TuningKey) -> Optional[TuningRecord]:
        """Memory -> server -> (offline: local fallback store) -> miss."""
        record = self.cache.lookup(key)
        if record is not None:
            return record
        if self.online:
            try:
                record = self.client.get(key)
            except ServiceUnavailable:
                self._mark_down()
            except ServiceError as exc:
                self._note_error(exc)
            else:
                self._mark_up()
            if record is not None:
                self.server_hits += 1
                self.cache.insert(record)
                return record
        if not self.online and self.fallback_store is not None:
            record = self.fallback_store.get(key)
            if record is not None:
                self.local_fallbacks += 1
                self.cache.insert(record)
                return record
        return None

    def _publish(self, record: TuningRecord) -> None:
        """Into memory always; to the server when up, the fallback when not.

        A server refusal (stale/corrupt by *its* rules, version mismatch)
        still writes the fallback store: the record was produced and
        validated under this client's cost model, and the fallback store
        shares that model.
        """
        self.cache.insert(record)
        if self.online:
            try:
                self.client.put(record)
            except ServiceUnavailable:
                self._mark_down()
            except ServiceError as exc:
                self._note_error(exc)
            else:
                self._mark_up()
                return
        if self.fallback_store is not None:
            self.fallback_store.put(record)

    # -- the tune entry point --------------------------------------------------
    def tune(
        self,
        key: TuningKey,
        candidates: Sequence,
        evaluate: Callable[[object], CostBreakdown],
        *,
        precheck: Optional[Callable[[object], None]] = None,
        oracle: Optional[Callable[[object], None]] = None,
        validation=None,
    ) -> TuningRecord:
        from ..rewriter.session import _apply_validation_policy

        oracle, precheck = _apply_validation_policy(oracle, precheck, validation)
        record = self._lookup(key)
        if record is not None:
            return record
        if self.online:
            try:
                record = self.client.tune(key)
            except ServiceUnavailable:
                self._mark_down()
            except ServiceError as exc:
                self.server_declines += 1
                self._note_error(exc)
            else:
                self._mark_up()
                self.server_tunes += 1
                self.cache.insert(record)
                return record
        return self._search_and_record(key, candidates, evaluate, oracle, precheck)

    # -- accounting ------------------------------------------------------------
    def summary(self) -> str:
        base = super().summary()
        state = "online" if self.online else "OFFLINE"
        host, port = self.client.address
        return (
            f"{base} | remote[{host}:{port} {state}]: {self.server_hits} server hits, "
            f"{self.server_tunes} server tunes, {self.server_declines} declines, "
            f"{self.local_fallbacks} local fallbacks, {self.offline_errors} outages"
        )

    def close(self) -> None:
        self.client.close()
