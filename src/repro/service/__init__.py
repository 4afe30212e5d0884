"""Tuning-as-a-service: a networked compile/tune daemon over the record store.

:class:`~repro.rewriter.store.ShardedTuningStore` makes the tuning corpus
shareable across *processes* on one machine; this package makes it
shareable across *machines*:

* :mod:`repro.service.protocol` — the versioned, length-prefixed JSON wire
  protocol (tune / get / put / stats / gc / warm / shutdown);
* :mod:`repro.service.server` — :class:`TuningService`, a threaded TCP
  daemon wrapping one store + session, with in-flight request coalescing
  (each unique :class:`~repro.rewriter.records.TuningKey` is searched at
  most once fleet-wide) and a speculative-tuning queue that pre-tunes the
  remaining layers of a requested sweep during idle time;
* :mod:`repro.service.client` — :class:`RemoteSession`, a drop-in
  :class:`~repro.rewriter.session.TuningSession` that reads through
  memory -> server -> miss, with retries and graceful fallback to a local
  store when the daemon is unreachable.

A fault-tolerance layer sits on top:

* **replication + failover** — ``serve --replicate-from HOST:PORT`` runs a
  daemon as a read-write *replica* that incrementally pulls the primary's
  shard records over the same wire protocol (``sync``), and
  :class:`ServiceClient`/:class:`RemoteSession` accept address *lists* with
  per-endpoint health tracking, automatic failover/failback, and hedged
  reads — killing the primary mid-sweep costs a reconnect, not the corpus;
* **one retry policy** — :class:`~repro.retry.RetryPolicy` (capped
  exponential backoff, deterministic jitter, per-op deadlines,
  transient-vs-fatal classification) now drives the client transport and
  the store's file-lock polling;
* **degradation + recovery** — :class:`~repro.retry.CircuitBreaker` governs
  :class:`RemoteSession` fallback, the ``health`` op reports role and
  replication lag for probes, and ``python -m repro.service fsck`` audits a
  store offline, quarantining torn shard lines;
* **deterministic fault injection** — :mod:`repro.testing.faults` names the
  failure points in protocol/server/store and drives the seeded chaos suite.

``python -m repro.service serve|status|health|gc|warm|fsck|shutdown`` is
the CLI.
"""

from ..retry import CircuitBreaker, RetryPolicy
from .client import (
    RemoteSession,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    normalize_addresses,
)
from .protocol import PROTOCOL_VERSION, ProtocolError
from .server import ReplicationStats, TuningService

__all__ = [
    "PROTOCOL_VERSION",
    "CircuitBreaker",
    "ProtocolError",
    "RemoteSession",
    "ReplicationStats",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "TuningService",
    "normalize_addresses",
]
