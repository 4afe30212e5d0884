"""The unified Executor facade and the ValidationPolicy kwarg unification.

One front door for execution (``Executor``) and one policy vocabulary for
validation everywhere (``off``/``spot``/``full``); the legacy entrypoints and
kwarg spellings are gone and must stay rejected.
"""

import numpy as np
import pytest

import repro.tir.executor as executor_module
from repro.hwsim.cost import CostBreakdown
from repro.rewriter.records import TuningKey
from repro.rewriter.session import TuningSession
from repro.tir import (
    ExecutablePlan,
    Executor,
    ValidationError,
    ValidationPolicy,
    alloc_buffers,
    lower,
    run,
)
from tests.conftest import float_copy, small_conv_hwc


def _func():
    return lower(small_conv_hwc())


def _buffers(func, seed=0):
    return alloc_buffers(func, np.random.default_rng(seed))


class TestValidationPolicy:
    def _coerce(self, value):
        return ValidationPolicy.coerce(value, default=ValidationPolicy.SPOT)

    def test_none_takes_default(self):
        assert self._coerce(None) is ValidationPolicy.SPOT

    def test_policy_passes_through(self):
        assert self._coerce(ValidationPolicy.FULL) is ValidationPolicy.FULL

    def test_strings_parse_case_insensitively(self):
        assert self._coerce("off") is ValidationPolicy.OFF
        assert self._coerce("SPOT") is ValidationPolicy.SPOT
        assert self._coerce("Full") is ValidationPolicy.FULL

    def test_garbage_raises(self):
        for garbage in (3.5, True, False):  # the boolean spelling is gone too
            with pytest.raises(TypeError):
                self._coerce(garbage)


class TestExecutor:
    def test_auto_tier_resolves_to_a_real_backend(self):
        assert Executor().tier in ("native", "vectorized")

    def test_unknown_tier_raises(self):
        with pytest.raises(ValueError, match="unknown tier"):
            Executor(tier="llvm")

    def test_interpreter_tier_matches_reference(self):
        func = _func()
        buffers = _buffers(func)
        expected = run(func, {t: a.copy() for t, a in buffers.items()})
        got = Executor(tier="interpreter").run(func, buffers)
        np.testing.assert_array_equal(got, expected)

    def test_validate_and_validation_together_raise(self):
        with pytest.raises(TypeError):
            Executor(validation="spot", validate=True)
        with pytest.raises(TypeError):  # alone, too: validation= is the one spelling
            Executor(validate=True)

    def test_spot_checks_each_distinct_function_once(self, monkeypatch):
        calls = []
        real_interpreter = executor_module.Interpreter

        class CountingInterpreter(real_interpreter):
            def __init__(self, func):
                calls.append(func)
                super().__init__(func)

        monkeypatch.setattr(executor_module, "Interpreter", CountingInterpreter)
        executor = Executor(tier="vectorized", validation="spot")
        func = _func()
        for seed in range(3):
            executor.run(func, _buffers(func, seed=seed))
        assert len(calls) == 1

    def test_full_checks_every_run(self, monkeypatch):
        calls = []
        real_interpreter = executor_module.Interpreter

        class CountingInterpreter(real_interpreter):
            def __init__(self, func):
                calls.append(func)
                super().__init__(func)

        monkeypatch.setattr(executor_module, "Interpreter", CountingInterpreter)
        executor = Executor(tier="vectorized", validation="full")
        func = _func()
        for seed in range(3):
            executor.run(func, _buffers(func, seed=seed))
        assert len(calls) == 3

    def test_validation_catches_a_lying_backend(self, monkeypatch):
        honest_run = ExecutablePlan.run

        def off_by_one(self, buffers, stats=None, func=None):
            out = honest_run(self, buffers, stats=stats, func=func)
            out += 1
            return out

        monkeypatch.setattr(ExecutablePlan, "run", off_by_one)
        executor = Executor(tier="vectorized", validation="full")
        func = _func()
        with pytest.raises(ValidationError, match="differs"):
            executor.run(func, _buffers(func))

    def test_full_validation_accepts_a_nan_output(self):
        """Bit identity compares bytes: the same NaN is the same result."""
        func, buffers = float_copy([np.nan, 1.0])
        got = Executor(tier="vectorized", validation="full").run(func, buffers)
        assert got.tobytes() == buffers[func.inputs[0]].tobytes()

    def test_full_validation_catches_a_flipped_zero_sign(self, monkeypatch):
        honest_run = ExecutablePlan.run

        def unsigned_zeros(self, buffers, stats=None, func=None):
            out = honest_run(self, buffers, stats=stats, func=func)
            out += np.float32(0.0)  # -0.0 + 0.0 is +0.0; nothing else moves
            return out

        monkeypatch.setattr(ExecutablePlan, "run", unsigned_zeros)
        func, buffers = float_copy([-0.0, 1.0])
        with pytest.raises(ValidationError, match="differs"):
            Executor(tier="vectorized", validation="full").run(func, buffers)

    def test_runs_accumulate_into_executor_stats(self):
        executor = Executor(tier="vectorized")
        func = _func()
        executor.run(func, _buffers(func))
        assert executor.stats.vector_nests > 0


# ---------------------------------------------------------------------------
# TuningSession.tune: the unified validation= policy
# ---------------------------------------------------------------------------

CANDIDATES = [3, 1, 2]


def _key(space="policy-test"):
    return TuningKey(
        kind="conv2d", params=(("h", 8),), intrinsic="vnni", machine="test", space=space
    )


def _breakdown(config):
    return CostBreakdown(seconds=float(config))


class TestTuneValidationPolicy:
    def test_spot_default_validates_winner_only(self):
        calls = []
        TuningSession().tune(_key(), CANDIDATES, _breakdown, oracle=calls.append)
        assert calls == [1]  # exactly the winner, exactly once

    def test_off_never_invokes_the_oracle(self):
        calls = []
        TuningSession().tune(
            _key(), CANDIDATES, _breakdown, oracle=calls.append, validation="off"
        )
        assert calls == []

    def test_full_screens_every_candidate_without_redundant_winner_pass(self):
        calls = []
        TuningSession().tune(
            _key(), CANDIDATES, _breakdown, oracle=calls.append, validation="full"
        )
        assert sorted(calls) == sorted(CANDIDATES)

    def test_full_oracle_rejections_remove_candidates(self):
        def reject_one(config):
            if config == 1:
                raise AssertionError("bad numerics")

        record = TuningSession().tune(
            _key(), CANDIDATES, _breakdown, oracle=reject_one, validation="full"
        )
        assert record.best_config == 2  # the cheapest *validated* candidate
        assert record.result.rejected == 1

    def test_validate_and_oracle_together_raise(self):
        with pytest.raises(TypeError):
            TuningSession().tune(
                _key(), CANDIDATES, _breakdown, validate=lambda c: None, oracle=lambda c: None
            )
        with pytest.raises(TypeError):  # alone, too: oracle= is the one spelling
            TuningSession().tune(_key(), CANDIDATES, _breakdown, validate=lambda c: None)


class TestRunnerValidationResolution:
    """The operator runners take validation= (a policy or its string) only."""

    def _resolve(self, **kwargs):
        from repro.core import UnitCpuRunner

        return UnitCpuRunner(tuning="first_pair", **kwargs).validation

    def test_default_is_off(self):
        assert self._resolve() is ValidationPolicy.OFF

    def test_validation_string_wins(self):
        assert self._resolve(validation="full") is ValidationPolicy.FULL
