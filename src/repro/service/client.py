"""The tuning service's client side: RPC transport + a drop-in session.

:class:`ServiceClient` is the transport: persistent TCP connections,
length-prefixed JSON frames, per-request timeout, and version checking on
every response.  It accepts a *list* of daemon addresses — the first is the
preferred (primary) endpoint, the rest are failover replicas — and keeps
per-endpoint health: a transport failure closes that endpoint's connection,
penalises it on the shared :class:`~repro.retry.RetryPolicy` backoff
schedule, and the next attempt goes to the healthiest remaining endpoint,
so losing the primary mid-request costs one reconnect, not the request.
:meth:`ServiceClient.hedged_get` adds latency hedging for reads: every
endpoint is probed (staggered by ``hedge_delay_s``) and the first answer
wins.  Transport failures raise :class:`ServiceUnavailable`;
server-reported failures raise :class:`ServiceError` carrying the
machine-readable ``code`` (e.g. ``"version_mismatch"``, ``"untunable"``).

:class:`RemoteSession` is the drop-in: a
:class:`~repro.rewriter.session.TuningSession` whose lookup tier order is
**memory -> server -> miss**, so ``compile_model(session=RemoteSession(...))``
and every figure driver in :mod:`repro.core.experiments` tune against the
daemon transparently.  On a miss it first asks the server to run the search
(coalesced fleet-wide — see :mod:`repro.service.server`); only if the server
declines (custom candidate lists, library baselines) or is unreachable
does it search locally.  Degradation is governed by a
:class:`~repro.retry.CircuitBreaker`: classified-fatal outages open it for
an escalating cooldown, half-open probes test recovery, and a protocol
version mismatch trips it permanently.  While the breaker is open, lookups
and publishes fall back to an optional local
:class:`~repro.rewriter.store.ShardedTuningStore` — a dead daemon costs
availability of the *shared* corpus, never correctness.
"""

from __future__ import annotations

import dataclasses
import queue as queue_module
import socket
import threading
import time
import warnings
from typing import Callable, List, Optional, Sequence, Tuple

from ..hwsim.cost import CostBreakdown
from ..retry import CircuitBreaker, RetryPolicy
from ..telemetry import metrics as _metrics
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

# What the transport may retry: socket-level trouble (ConnectionClosed is a
# ConnectionError, hence an OSError) and torn/malformed frames.  Server
# verdicts (ServiceError) are never transport-retried.
TRANSPORT_ERRORS = (OSError, protocol.ProtocolError)


class ServiceUnavailable(ConnectionError):
    """No endpoint could be reached (or all died mid-request) after retries."""


class ServiceError(RuntimeError):
    """The daemon answered with an error response."""

    def __init__(self, message: str, code: str = "error") -> None:
        super().__init__(message)
        self.code = code


def _as_endpoint(item) -> Address:
    if isinstance(item, str):
        host, sep, port = item.rpartition(":")
        if not sep:
            raise ValueError(f"address {item!r} is not of the form 'host:port'")
        return (host or "127.0.0.1", int(port))
    return (str(item[0]), int(item[1]))


def normalize_addresses(address) -> List[Address]:
    """Whatever the caller has -> a non-empty ``[(host, port), ...]`` list.

    Accepts one ``(host, port)`` pair, one ``"host:port"`` string, or a
    sequence of either (mixed is fine).  Order is meaning: the first entry
    is the preferred endpoint, the rest are failover replicas.
    """
    if isinstance(address, str):
        return [_as_endpoint(address)]
    items = list(address)
    if not items:
        raise ValueError("need at least one service address")
    if (
        len(items) == 2
        and not isinstance(items[0], (list, tuple))
        and not (isinstance(items[0], str) and ":" in items[0])
        and isinstance(items[1], (int, str))
        and str(items[1]).isdigit()
    ):
        return [(str(items[0]), int(items[1]))]  # one bare (host, port) pair
    return [_as_endpoint(item) for item in items]


class ServiceClient:
    """One logical connection to a tuning-service endpoint *set*.

    ``address`` is anything :func:`normalize_addresses` takes; the first
    endpoint is preferred, later ones are replicas.  ``timeout`` bounds each
    socket operation; ``tune_timeout`` bounds the blocking ``tune``/``warm``
    requests (the server may be running a search on our behalf).

    Failed requests are retried on ``retry_policy`` (default: capped
    exponential backoff with deterministic jitter, ``retries + 1`` total
    attempts) with a fresh endpoint choice per attempt: an endpoint that
    fails is closed and sidelined for an escalating cool-down on the same
    backoff schedule, after which it is re-probed — so when a dead primary
    comes back, traffic fails back to it by itself.  A daemon answering
    ``shutting_down`` is treated exactly like a dead one.  When every
    attempt is exhausted :class:`ServiceUnavailable` carries the last error.

    Not thread-safe: give each thread its own client (connections are cheap;
    records are not).
    """

    def __init__(
        self,
        address,
        timeout: float = 10.0,
        tune_timeout: float = 300.0,
        retries: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        hedge_delay_s: float = 0.05,
    ) -> None:
        self.addresses = normalize_addresses(address)
        self.address = self.addresses[0]  # the preferred endpoint
        self.timeout = timeout
        self.tune_timeout = tune_timeout
        if retry_policy is None:
            retry_policy = RetryPolicy(
                max_attempts=(2 if retries is None else retries) + 1,
                base_delay_s=0.05,
                max_delay_s=2.0,
                transient=TRANSPORT_ERRORS,
            )
        elif retries is not None:
            retry_policy = dataclasses.replace(retry_policy, max_attempts=retries + 1)
        self.retry = retry_policy
        self.hedge_delay_s = hedge_delay_s
        self._socks: List[Optional[socket.socket]] = [None] * len(self.addresses)
        self._down_until = [0.0] * len(self.addresses)
        self._failures = [0] * len(self.addresses)
        self._active = 0
        self.requests_sent = 0
        self.reconnects = 0
        self.failovers = 0
        self.hedged_gets = 0
        self.hedged_wins = 0

    @property
    def retries(self) -> int:
        """Retry count after the first attempt (mirrors the policy)."""
        return (self.retry.max_attempts or 1) - 1

    # -- endpoint health -------------------------------------------------------
    def _pick_endpoint(self, avoid: Optional[int] = None) -> int:
        """The healthiest endpoint, preferred-first.

        Endpoints are scanned in address order and the first one whose
        cool-down has expired wins — so the preferred endpoint is re-probed
        (and traffic fails *back*) as soon as its penalty lapses.  ``avoid``
        names the endpoint that failed *this request's* previous attempt:
        retrying it immediately would just re-time-out, so a sibling is
        preferred even if the failed one's cool-down has already lapsed
        (it has — the retry sleep and the penalty share a schedule).  With
        everything down, the least-recently-penalised endpoint is tried
        anyway: an attempt against a dead endpoint costs one connect
        timeout, giving up costs the request.
        """
        now = time.monotonic()
        for index in range(len(self.addresses)):
            if index != avoid and self._down_until[index] <= now:
                return index
        if avoid is not None and self._down_until[avoid] <= now:
            return avoid
        return min(range(len(self.addresses)), key=lambda i: self._down_until[i])

    def _endpoint_failed(self, index: int) -> None:
        self._close_endpoint(index)
        self._failures[index] += 1
        self._down_until[index] = time.monotonic() + self.retry.backoff_s(
            self._failures[index]
        )

    def _endpoint_ok(self, index: int) -> None:
        self._failures[index] = 0
        self._down_until[index] = 0.0
        if index != self._active:
            self.failovers += 1
            _metrics.count("service.client.failovers")
            self._active = index

    # -- transport ------------------------------------------------------------
    def _connect(self, index: int) -> socket.socket:
        sock = self._socks[index]
        if sock is None:
            sock = socket.create_connection(self.addresses[index], timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._socks[index] = sock
            self.reconnects += 1
        return sock

    def _close_endpoint(self, index: int) -> None:
        sock, self._socks[index] = self._socks[index], None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close() on a dead socket
                pass

    def close(self) -> None:
        for index in range(len(self.addresses)):
            self._close_endpoint(index)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, op: str, *, _timeout: Optional[float] = None, **fields) -> dict:
        """Send one request; returns the ``ok`` response payload.

        Raises :class:`ServiceError` for server-reported failures (no
        retry — the server is healthy, the request is not; the exception
        is ``shutting_down``, which penalises the endpoint and fails over
        like an outage) and :class:`ServiceUnavailable` once the retry
        policy's attempts or deadline run out.
        """
        message = protocol.request(op, **fields)
        last: Optional[Exception] = None
        avoid: Optional[int] = None
        for _attempt in self.retry.attempts():
            index = self._pick_endpoint(avoid=avoid)
            try:
                sock = self._connect(index)
                sock.settimeout(_timeout if _timeout is not None else self.timeout)
                protocol.send_message(sock, message)
                response = protocol.recv_message(sock)
                self.requests_sent += 1
            except TRANSPORT_ERRORS as exc:
                self._endpoint_failed(index)
                avoid = index
                last = exc
                if self.retry.classify(exc) != "transient":
                    break
                continue
            mismatch = protocol.check_versions(response)
            if mismatch is not None:
                raise ServiceError(*mismatch)
            if not response.get("ok"):
                code = str(response.get("code", "error"))
                if code == "shutting_down":
                    self._endpoint_failed(index)
                    avoid = index
                    last = ServiceError(
                        str(response.get("error", "shutting down")), code
                    )
                    continue
                raise ServiceError(
                    str(response.get("error", "request failed")), code
                )
            self._endpoint_ok(index)
            return response
        addresses = ", ".join(f"{host}:{port}" for host, port in self.addresses)
        attempts = self.retry.max_attempts
        raise ServiceUnavailable(
            f"tuning service unreachable at [{addresses}] after "
            f"{attempts if attempts is not None else 'deadline-bounded'} "
            f"attempts: {last}"
        ) from last

    # -- typed operations ------------------------------------------------------
    def ping(self) -> dict:
        return self.request("ping")

    def health(self) -> dict:
        """The daemon's failover probe: role, replication lag, load."""
        return self.request("health")

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

    def hedged_get(self, key: TuningKey) -> Optional[TuningRecord]:
        """A hedged read: probe every endpoint, first answer wins.

        With one endpoint this is exactly :meth:`get`.  Otherwise each
        endpoint gets its own one-shot probe client on its own thread,
        started healthy-endpoints-first and staggered by ``hedge_delay_s``
        — so a healthy preferred endpoint still serves almost every read
        alone, while a dead or slow one only costs the stagger delay, not
        a timeout.  The first definitive answer (hit *or* miss: endpoints
        replicate from the preferred one, so its miss is authoritative)
        wins; errors only surface when every endpoint fails.
        """
        if len(self.addresses) == 1:
            return self.get(key)
        self.hedged_gets += 1
        now = time.monotonic()
        order = sorted(
            range(len(self.addresses)),
            key=lambda i: (self._down_until[i] > now, i),
        )
        results: "queue_module.Queue" = queue_module.Queue()
        settled = threading.Event()

        def probe(rank: int, index: int) -> None:
            if rank and settled.wait(self.hedge_delay_s * rank):
                results.put((index, "late", None))
                return
            try:
                with ServiceClient(
                    self.addresses[index],
                    timeout=self.timeout,
                    retry_policy=dataclasses.replace(self.retry, max_attempts=1),
                ) as one_shot:
                    results.put((index, "ok", one_shot.get(key)))
            except Exception as exc:
                results.put((index, "error", exc))

        threads = [
            threading.Thread(
                target=probe, args=(rank, index), name=f"hedged-get-{index}", daemon=True
            )
            for rank, index in enumerate(order)
        ]
        for thread in threads:
            thread.start()
        wait_s = self.timeout + self.hedge_delay_s * len(order) + 1.0
        errors: List[BaseException] = []
        for _ in threads:
            try:
                index, kind, value = results.get(timeout=wait_s)
            except queue_module.Empty:  # pragma: no cover - probe thread wedged
                break
            if kind == "ok":
                settled.set()
                self._endpoint_ok(index)
                if index != order[0]:
                    self.hedged_wins += 1
                    _metrics.count("service.client.hedged_wins")
                return value
            if kind == "error":
                self._endpoint_failed(index)
                errors.append(value)
        settled.set()
        last = errors[-1] if errors else None
        raise ServiceUnavailable(
            f"hedged get failed on every endpoint: {last}"
        ) from last

    def put(self, record: TuningRecord) -> None:
        self.request("put", record=record.to_json())

    def tune(self, key: TuningKey, sweep: Optional[str] = None) -> TuningRecord:
        """Have the *server* produce the record for ``key`` (coalesced).

        Raises :class:`ServiceError` with ``code="untunable"`` when the
        server cannot rebuild the search from the key alone.
        """
        fields = {"key": key.to_json()}
        if sweep:
            fields["sweep"] = sweep
        response = self.request("tune", _timeout=self.tune_timeout, **fields)
        return self._decode_record(response["record"])

    def stats(self) -> dict:
        return self.request("stats")

    def gc(
        self, max_records: Optional[int] = None, max_idle: Optional[float] = None
    ) -> dict:
        return self.request("gc", max_records=max_records, max_idle=max_idle)

    def warm(self, sweep: str, background: bool = False) -> dict:
        return self.request(
            "warm", sweep=sweep, background=background, _timeout=self.tune_timeout
        )

    def shutdown(self) -> dict:
        return self.request("shutdown")


class RemoteSession(TuningSession):
    """A tuning session backed by remote daemons: memory -> server -> miss.

    Drop-in for every ``session=`` parameter in the pipeline::

        session = RemoteSession(
            [("tuner.fleet", 9461), ("tuner-replica.fleet", 9461)],
            fallback_store="local_store",
        )
        compile_model(get_model("resnet-18"), session=session)

    ``address`` takes everything :func:`normalize_addresses` does; with
    more than one endpoint, reads are hedged (:meth:`ServiceClient.hedged_get`)
    and any transport failure rolls over to the next endpoint, so killing
    the primary costs a reconnect, not the warm corpus.

    On a cache miss the session asks the daemon for the record; if the
    daemon does not have it, the daemon *searches for it* (request-coalesced
    with every other client asking for the same key) and only keys the
    server cannot rebuild are searched locally.  Fresh local records are
    published back to the server so the fleet's corpus stays warm.

    ``speculate`` optionally names the sweep this session's keys belong to
    (a model-zoo name or ``"table1"``); it rides along on tune requests and
    prompts the daemon to pre-tune the sweep's remaining layers during idle
    time.

    Availability is a :class:`~repro.retry.CircuitBreaker`:
    ``breaker_failures`` consecutive outages (default 1 — one transport
    failure already proves the fleet unreachable *through every endpoint*)
    open it for ``offline_cooldown_s``, escalating on repeated trips; a
    half-open probe then tests recovery.  While open, lookups and publishes
    fall back to ``fallback_store`` (a local :class:`ShardedTuningStore` or
    path, optional).  A protocol version mismatch trips the breaker
    permanently.
    """

    def __init__(
        self,
        address,
        fallback_store=None,
        timeout: float = 10.0,
        tune_timeout: float = 300.0,
        retries: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        offline_cooldown_s: float = 5.0,
        breaker_failures: int = 1,
        speculate: Optional[str] = None,
        server_tune: bool = True,
    ) -> None:
        super().__init__()
        self.client = ServiceClient(
            address,
            timeout=timeout,
            tune_timeout=tune_timeout,
            retries=retries,
            retry_policy=retry_policy,
        )
        if fallback_store is not None and not isinstance(fallback_store, ShardedTuningStore):
            fallback_store = ShardedTuningStore(fallback_store)
        self.fallback_store = fallback_store
        self.offline_cooldown_s = offline_cooldown_s
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_failures,
            reset_timeout_s=offline_cooldown_s,
        )
        self.speculate = speculate
        self.server_tune = server_tune
        self.server_hits = 0
        self.server_tunes = 0
        self.server_declines = 0
        self.offline_errors = 0
        self.local_fallbacks = 0
        self.incompatible: Optional[str] = None

    # -- availability ----------------------------------------------------------
    @property
    def online(self) -> bool:
        """Whether the session is currently willing to talk to the daemon
        (the breaker is closed, or half-open and due a probe)."""
        return self.breaker.allow()

    def _mark_down(self) -> None:
        self.offline_errors += 1
        self.breaker.record_failure()

    def _mark_up(self) -> None:
        self.breaker.record_success()

    def force_offline(self) -> None:
        """Pin the session to its local tiers (drills, tests): the breaker
        opens permanently, so every lookup and publish uses the fallback
        store from now on."""
        self.breaker.trip(forever=True)

    def _note_error(self, exc: ServiceError) -> None:
        """A server-reported error: most are per-request, but a version
        mismatch can never heal within this process — trip the breaker
        permanently (activating the fallback-store tier) instead of
        silently re-tuning everything locally and persisting nothing."""
        if exc.code == "version_mismatch" and self.incompatible is None:
            self.incompatible = str(exc)
            self.breaker.trip(forever=True)
            warnings.warn(
                f"tuning service at {self.client.address[0]}:"
                f"{self.client.address[1]} is version-incompatible; "
                f"falling back to local tuning permanently: {exc}",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- lookup tiers ----------------------------------------------------------
    def _server_get(self, key: TuningKey) -> Optional[TuningRecord]:
        if len(self.client.addresses) > 1:
            return self.client.hedged_get(key)
        return self.client.get(key)

    def _lookup(self, key: TuningKey) -> Optional[TuningRecord]:
        """Memory -> server (hedged across endpoints) -> (offline: local
        fallback store) -> miss."""
        record = self.cache.lookup(key)
        if record is not None:
            return record
        if self.online:
            record = None
            try:
                record = self._server_get(key)
            except ServiceUnavailable:
                self._mark_down()
            except ServiceError as exc:
                self._note_error(exc)
            else:
                self._mark_up()
            if record is not None:
                self.server_hits += 1
                _metrics.count("service.client.server_hits")
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
        if self.server_tune and self.online:
            try:
                record = self.client.tune(key, sweep=self.speculate)
            except ServiceUnavailable:
                self._mark_down()
            except ServiceError as exc:
                self.server_declines += 1
                self._note_error(exc)
            else:
                self._mark_up()
                self.server_tunes += 1
                _metrics.count("service.client.server_tunes")
                self.cache.insert(record)
                return record
        return self._search_and_record(key, candidates, evaluate, oracle, precheck)

    # -- accounting ------------------------------------------------------------
    def summary(self) -> str:
        base = super().summary()
        state = "online" if self.online else "OFFLINE"
        endpoints = ",".join(f"{host}:{port}" for host, port in self.client.addresses)
        return (
            f"{base} | remote[{endpoints} {state}, "
            f"breaker {self.breaker.state}]: {self.server_hits} server hits, "
            f"{self.server_tunes} server tunes, {self.server_declines} declines, "
            f"{self.local_fallbacks} local fallbacks, {self.offline_errors} outages, "
            f"{self.client.failovers} failovers"
        )

    def close(self) -> None:
        self.client.close()
