"""Tuning-as-a-service: a networked compile/tune daemon over the record store.

:class:`~repro.rewriter.store.ShardedTuningStore` makes the tuning corpus
shareable across *processes* on one machine; this package makes it
shareable across *machines* through one daemon:

* :mod:`repro.service.protocol` — the versioned, length-prefixed JSON wire
  protocol (ping / get / put / tune / stats / warm / shutdown);
* :mod:`repro.service.server` — :class:`TuningService`, a threaded TCP
  daemon wrapping one store + session, with in-flight request coalescing
  (each unique :class:`~repro.rewriter.records.TuningKey` is searched at
  most once, however many clients ask for it); it does work only when a
  request asks for it (``warm`` tunes a named sweep synchronously);
* :mod:`repro.service.client` — :class:`RemoteSession`, a drop-in
  :class:`~repro.rewriter.session.TuningSession` that reads through
  memory -> server -> miss, with retries and graceful fallback to a local
  store when the daemon is unreachable.

Failures are handled without a second daemon:

* **one retry policy** — :class:`~repro.retry.RetryPolicy` (capped
  exponential backoff, deterministic jitter, deadlines) drives the client
  transport and the store's file-lock polling;
* **degradation + recovery** — an unreachable daemon takes a
  :class:`RemoteSession` offline for a cool-down, during which it tunes
  locally into an optional fallback store; a daemon restarted over the same
  store directory serves everything its predecessor persisted, and
  ``python -m repro.service fsck`` audits a store offline, quarantining
  torn shard lines;
* **deterministic fault injection** — :mod:`repro.testing.faults` names the
  failure points in protocol/server/store and drives the seeded chaos suite.

``python -m repro.service serve|status|warm|ping|fsck|shutdown`` is the
CLI.
"""

from ..retry import RetryPolicy
from .client import (
    RemoteSession,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    normalize_addresses,
)
from .protocol import PROTOCOL_VERSION, ProtocolError
from .server import TuningService

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteSession",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "TuningService",
    "normalize_addresses",
]
