"""The tuning driver: enumerate schedule configurations, profile, keep the best.

The paper's Rewriter does not model performance analytically — it enumerates
the (small) tuning space and profiles each candidate (Section III-C.3).  Here
"profiling" means evaluating the candidate on the analytical machine model of
the target platform, which plays the role of the physical machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, List, Optional, Sequence, Tuple, TypeVar

__all__ = ["TuningTrial", "TuningResult", "exhaustive_search"]

ConfigT = TypeVar("ConfigT")


@dataclass
class TuningTrial(Generic[ConfigT]):
    """One profiled candidate."""

    config: ConfigT
    cost: float
    index: int


@dataclass
class TuningResult(Generic[ConfigT]):
    """The outcome of a tuning run.

    ``rejected`` counts the candidates the search's ``precheck`` oracle
    refused before the cost model saw them (e.g. the static verification
    tier rejecting an unsound rewrite); rejected candidates produce no
    trial and cannot win.
    """

    best_config: ConfigT
    best_cost: float
    trials: List[TuningTrial] = field(default_factory=list)
    rejected: int = 0

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    def best_rank(self, tolerance: float = 0.0) -> int:
        """The 1-based position of the first candidate within ``tolerance``
        (relative) of the best cost.

        This is what the paper's "more than half of the kernels get the
        optimal performance on the first tuning pair" claim is about; a small
        tolerance plays the role of profiling noise on real hardware.

        Raises :class:`ValueError` when the result carries no trials (e.g. a
        result reconstructed from a persisted tuning record): a rank computed
        from nothing would silently claim first-pair optimality.
        """
        if not self.trials:
            raise ValueError("best_rank requires a result with recorded trials")
        threshold = self.best_cost * (1.0 + max(0.0, tolerance))
        for trial in self.trials:
            if trial.cost <= threshold:
                return trial.index + 1
        return self.trials[-1].index + 1

    def cost_of(self, index: int) -> float:
        return self.trials[index].cost


PrecheckT = Callable[[ConfigT], None]


def _prefilter(
    candidates: Sequence[ConfigT], precheck: Optional[PrecheckT]
) -> Tuple[List[Tuple[int, ConfigT]], int]:
    """Partition candidates through the precheck oracle.

    ``precheck`` is invoked with each candidate and must raise to reject it;
    survivors keep their original candidate index (so ``best_rank`` still
    reports positions in the advertised tuning-pair ordering).  Returns the
    kept ``(index, config)`` pairs plus the reject count.
    """
    if precheck is None:
        return list(enumerate(candidates)), 0
    kept: List[Tuple[int, ConfigT]] = []
    rejected = 0
    for index, config in enumerate(candidates):
        try:
            precheck(config)
        except Exception:
            rejected += 1
        else:
            kept.append((index, config))
    return kept, rejected


def exhaustive_search(
    candidates: Sequence[ConfigT],
    evaluate: Callable[[ConfigT], float],
    precheck: Optional[PrecheckT] = None,
) -> TuningResult:
    """Profile every candidate and return the best one.

    ``precheck`` (raise-to-reject) screens each candidate before it is
    evaluated: rejected candidates are skipped, counted in
    :attr:`TuningResult.rejected` and never reach the cost model.
    """
    if not candidates:
        raise ValueError("tuning requires at least one candidate configuration")
    kept, rejected = _prefilter(candidates, precheck)
    if not kept:
        raise ValueError("the precheck rejected every candidate configuration")
    trials: List[TuningTrial] = []
    best: Optional[TuningTrial] = None
    for index, config in kept:
        cost = float(evaluate(config))
        trial = TuningTrial(config=config, cost=cost, index=index)
        trials.append(trial)
        if best is None or cost < best.cost:
            best = trial
    assert best is not None
    return TuningResult(
        best_config=best.config, best_cost=best.cost, trials=trials, rejected=rejected
    )
