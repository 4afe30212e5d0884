"""The shared tuning session: one cache, one search, many runners.

A :class:`TuningSession` is what the operator runners (``UnitCpuRunner``,
``UnitGpuRunner``) and the baseline library runners share so that identical
(workload, instruction, machine, search-space) problems are tuned exactly
once per process — and, when the session is backed by a
:class:`~repro.rewriter.store.ShardedTuningStore`, once per *machine*.  The
session accounts for every profiling trial it performs, which is how the
experiment suite verifies that a warm cache does zero tuning work.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Sequence

from ..hwsim.cost import CostBreakdown
from ..telemetry import trace as _trace
from .records import TuningCache, TuningKey, TuningRecord
from .store import ShardedTuningStore
from .tuner import exhaustive_search

__all__ = ["TuningSession"]


def _apply_validation_policy(oracle, precheck, validation):
    """The effective ``(oracle, precheck)`` pair of :meth:`tune` for the
    requested :class:`~repro.tir.ValidationPolicy`: ``OFF`` drops the oracle,
    ``SPOT`` keeps it winner-only, ``FULL`` merges it into the per-candidate
    precheck.
    """
    from ..tir.executor import ValidationPolicy

    policy = ValidationPolicy.coerce(validation, default=ValidationPolicy.SPOT)
    if policy is ValidationPolicy.OFF:
        return None, precheck
    if policy is ValidationPolicy.FULL and oracle is not None:
        base_precheck, winner_oracle = precheck, oracle

        def full_precheck(cfg):
            if base_precheck is not None:
                base_precheck(cfg)
            winner_oracle(cfg)

        # Every candidate (the winner included) is validated up front, so
        # the winner-only pass would be redundant work.
        return None, full_precheck
    return oracle, precheck


class TuningSession:
    """Shared tuning state: an in-memory record cache over an optional store.

    A cache miss profiles every candidate
    (:func:`~repro.rewriter.tuner.exhaustive_search`) and keeps the best.

    ``store`` optionally backs the session with a
    :class:`~repro.rewriter.store.ShardedTuningStore` (or the path of one —
    the only way records persist): lookups read through (memory -> shard ->
    miss) and every fresh search's record is written through to the store,
    so later sessions and concurrent sessions in other processes — e.g.
    the tuning daemon's — see each other's winners.
    """

    def __init__(self, store=None) -> None:
        if isinstance(store, (str, os.PathLike)):
            store = ShardedTuningStore(store)
        self.cache = TuningCache()
        self.store = store
        self.store_hits = 0
        self.trials_run = 0
        self.searches_run = 0
        self.candidates_rejected = 0

    # -- the two entry points -------------------------------------------------
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
        """Return the record for ``key``, searching ``candidates`` on a miss.

        ``evaluate`` maps a candidate config to its :class:`CostBreakdown`;
        the search minimises ``evaluate(cfg).seconds``.  On a hit no candidate
        is evaluated at all.

        ``oracle`` is the trial-validation callable (raise-to-reject); how
        much of the search it covers is the ``validation``
        :class:`~repro.tir.ValidationPolicy`:

        * ``SPOT`` (the default) — winner-only: the oracle runs on the
          winning configuration of a fresh search (never on a cache hit — a
          cached record was validated when it was created), so a record never
          enters the cache unvalidated.  The operator runners pass a
          functional check that tensorizes the workload with the winning
          config and compares the engine's output against the reference
          lowering (bit-identical for integer kernels, tight tolerance for
          float).
        * ``FULL`` — the oracle additionally screens every candidate before
          it is costed (merged into ``precheck``).
        * ``OFF`` — the oracle is not invoked at all.

        ``precheck`` screens *every* candidate before the cost model sees it
        (also raise-to-reject): the operator runners pass the static
        verification tier here, so a candidate whose rewrite cannot be proved
        sound is never costed, never profiled and never wins.  Rejections are
        counted in ``TuningResult.rejected`` and the session's
        ``candidates_rejected``.
        """
        oracle, precheck = _apply_validation_policy(oracle, precheck, validation)
        record = self._lookup(key)
        if record is not None:
            return record
        return self._search_and_record(key, candidates, evaluate, oracle, precheck)

    def _search_and_record(
        self,
        key: TuningKey,
        candidates: Sequence,
        evaluate: Callable[[object], CostBreakdown],
        validate: Optional[Callable[[object], None]] = None,
        precheck: Optional[Callable[[object], None]] = None,
    ) -> TuningRecord:
        """Run the miss path of :meth:`tune`: search, validate, publish.

        Split out so sessions with extra lookup tiers (the service's
        :class:`~repro.service.client.RemoteSession`) can interpose between
        the lookup and the local search without duplicating this body.
        """
        with _trace.span("tuner.search", kind=key.kind) as sp:
            result = exhaustive_search(
                candidates, lambda cfg: evaluate(cfg).seconds, precheck
            )
            sp.set(trials=result.num_trials, rejected=result.rejected)
        if validate is not None:
            validate(result.best_config)
        best = evaluate(result.best_config)
        record = TuningRecord(
            key=key,
            best_config=result.best_config,
            best_cost=best.seconds,
            num_trials=result.num_trials,
            breakdown=best,
            result=result,
        )
        self._publish(record)
        self.trials_run += result.num_trials
        self.searches_run += 1
        self.candidates_rejected += result.rejected
        return record

    def memoize(
        self, key: TuningKey, compute: Callable[[], CostBreakdown]
    ) -> CostBreakdown:
        """Cache a single cost with no search (library-baseline latencies)."""
        record = self._lookup(key)
        if record is None:
            cost = compute()
            record = TuningRecord(
                key=key,
                best_config=None,
                best_cost=cost.seconds,
                num_trials=0,
                breakdown=cost,
            )
            self._publish(record)
        return record.breakdown

    # -- the store tier -------------------------------------------------------
    def _lookup(self, key: TuningKey) -> Optional[TuningRecord]:
        """Memory -> shard -> miss.  A shard hit is promoted into memory so
        subsequent lookups keep the cheap identity semantics (and stop paying
        the store read)."""
        record = self.cache.lookup(key)
        if record is not None:
            return record
        if self.store is not None:
            record = self.store.get(key)
            if record is not None:
                self.store_hits += 1
                self.cache.insert(record)
        return record

    def _publish(self, record: TuningRecord) -> None:
        self.cache.insert(record)
        if self.store is not None:
            self.store.put(record)

    # -- accounting ---------------------------------------------------------
    @property
    def stats(self):
        return self.cache.stats

    def summary(self) -> str:
        s = self.stats
        store = f", {self.store_hits} store hits" if self.store is not None else ""
        rejected = (
            f", {self.candidates_rejected} rejected" if self.candidates_rejected else ""
        )
        return (
            f"TuningSession: {s.size} records, "
            f"{s.hits} hits / {s.misses} misses ({s.hit_rate:.0%}){store}, "
            f"{self.trials_run} trials in {self.searches_run} searches{rejected}"
        )
