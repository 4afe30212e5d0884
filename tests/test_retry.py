"""Tests for the unified RetryPolicy."""

import pytest

from repro.retry import RetryPolicy


class FakeClock:
    """A manual monotonic clock; `sleep` advances it (no real waiting)."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class TestBackoffSchedule:
    def test_capped_exponential_without_jitter(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0)
        assert [policy.backoff_s(n) for n in (1, 2, 3, 4, 5)] == [
            0.1,
            0.2,
            0.4,
            0.5,
            0.5,
        ]

    def test_jitter_only_shrinks_and_is_deterministic(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.5, seed=7)
        for attempt in range(1, 20):
            raw = RetryPolicy(base_delay_s=0.1, jitter=0.0).backoff_s(attempt)
            jittered = policy.backoff_s(attempt)
            assert raw * 0.5 <= jittered <= raw  # downward only, bounded
            assert jittered == policy.backoff_s(attempt)  # pure function

    def test_different_seeds_decorrelate(self):
        a = RetryPolicy(jitter=0.5, seed=1)
        b = RetryPolicy(jitter=0.5, seed=2)
        assert [a.backoff_s(n) for n in range(1, 6)] != [
            b.backoff_s(n) for n in range(1, 6)
        ]

    def test_huge_attempt_numbers_do_not_overflow(self):
        policy = RetryPolicy(max_delay_s=2.0, jitter=0.0)
        assert policy.backoff_s(10_000) == 2.0

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().backoff_s(0)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="deadline"):
            RetryPolicy(max_attempts=None)  # unbounded needs a deadline
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)


class TestAttempts:
    def test_yields_exactly_max_attempts(self):
        clock = FakeClock()
        policy = RetryPolicy(max_attempts=4, jitter=0.0)
        seen = list(policy.attempts(sleep=clock.sleep, clock=clock))
        assert seen == [0, 1, 2, 3]
        assert len(clock.sleeps) == 3  # no sleep after the last attempt

    def test_single_attempt_never_sleeps(self):
        clock = FakeClock()
        assert list(
            RetryPolicy(max_attempts=1).attempts(sleep=clock.sleep, clock=clock)
        ) == [0]
        assert clock.sleeps == []

    def test_deadline_bounds_unbounded_attempts(self):
        clock = FakeClock()
        policy = RetryPolicy(
            max_attempts=None,
            base_delay_s=0.3,
            multiplier=1.0,
            jitter=0.0,
            deadline_s=1.0,
        )
        seen = list(policy.attempts(sleep=clock.sleep, clock=clock))
        # 0.3s per gap, 1.0s budget -> attempts at t=0, .3, .6, .9, then the
        # final delay is clipped to the 0.1s remaining and the deadline ends it.
        assert len(seen) == 5
        assert clock.sleeps[-1] == pytest.approx(0.1)
        assert clock.now <= 1.0 + 1e-9  # never overshoots

    def test_deadline_clips_the_pending_delay(self):
        clock = FakeClock()
        policy = RetryPolicy(
            max_attempts=None, base_delay_s=10.0, jitter=0.0, deadline_s=1.0
        )
        list(policy.attempts(sleep=clock.sleep, clock=clock))
        assert clock.sleeps == [1.0]  # a 10s backoff clipped to the budget
