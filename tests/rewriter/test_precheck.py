"""The precheck oracle: raise-to-reject screening before the cost model.

The search driver accepts a ``precheck`` callable; rejected candidates
must never be costed, must be counted in ``TuningResult.rejected``, and
survivors must keep their original candidate indices so ``best_rank``
still speaks the advertised ordering.  The session threads the oracle
through and aggregates the counts.
"""

import pytest

from repro.hwsim.cost import CostBreakdown
from repro.rewriter.records import TuningKey
from repro.rewriter.session import TuningSession
from repro.rewriter.tuner import exhaustive_search

CANDIDATES = [4, 1, 3, 0, 2]  # cost == value; best overall 0, best even 0


def _reject_odd(config):
    if config % 2:
        raise ValueError(f"odd candidate {config}")


def _cost(config):
    return float(config)


class TestDrivers:
    def test_rejected_candidates_never_costed(self):
        costed = []

        def evaluate(config):
            costed.append(config)
            return _cost(config)

        result = exhaustive_search(CANDIDATES, evaluate, precheck=_reject_odd)
        assert result.rejected == 2
        assert result.best_config == 0
        assert all(c % 2 == 0 for c in costed)
        # Survivors keep their original candidate indices.
        assert [t.index for t in result.trials] == [0, 3, 4]
        assert [t.config for t in result.trials] == [4, 0, 2]

    def test_all_rejected_raises(self):
        def reject_all(config):
            raise RuntimeError("nope")

        with pytest.raises(ValueError, match="rejected every candidate"):
            exhaustive_search(CANDIDATES, _cost, precheck=reject_all)

    def test_no_precheck_unchanged(self):
        result = exhaustive_search(CANDIDATES, _cost)
        assert result.rejected == 0
        assert result.num_trials == len(CANDIDATES)


def _key(space="s"):
    return TuningKey(
        kind="conv2d", params=(("h", 8),), intrinsic="vnni", machine="test", space=space
    )


def _breakdown(config):
    return CostBreakdown(seconds=float(config))


class TestSession:
    def test_session_counts_rejections(self):
        session = TuningSession()
        record = session.tune(
            _key(), CANDIDATES, _breakdown, precheck=_reject_odd
        )
        assert record.best_config == 0
        assert record.result.rejected == 2
        assert session.candidates_rejected == 2
        assert ", 2 rejected" in session.summary()

    def test_cache_hit_skips_the_precheck(self):
        session = TuningSession()
        session.tune(_key(), CANDIDATES, _breakdown, precheck=_reject_odd)
        calls = []

        def counting_precheck(config):
            calls.append(config)
            _reject_odd(config)

        record = session.tune(
            _key(), CANDIDATES, _breakdown, precheck=counting_precheck
        )
        assert record.best_config == 0
        assert calls == []  # hit: nothing re-screened
        assert session.candidates_rejected == 2  # unchanged

    def test_rejections_accumulate_across_searches(self):
        session = TuningSession()
        session.tune(_key("s1"), CANDIDATES, _breakdown, precheck=_reject_odd)
        session.tune(_key("s2"), [1, 2, 3], _breakdown, precheck=_reject_odd)
        assert session.candidates_rejected == 4

    def test_no_precheck_summary_omits_rejected(self):
        session = TuningSession()
        session.tune(_key(), CANDIDATES, _breakdown)
        assert "rejected" not in session.summary()
