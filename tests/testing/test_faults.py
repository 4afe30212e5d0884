"""Tests for the deterministic fault-injection registry."""

import threading
from pathlib import Path

import pytest

from repro.testing import faults
from repro.testing.faults import (
    POINTS,
    FaultPlan,
    InjectedFault,
    delay,
    reset_connection,
)


class TestRegistry:
    def test_disabled_fire_is_a_no_op(self):
        assert not faults.active()
        faults.fire("protocol.send", sock=None, frame=b"", message={})  # nothing raises

    def test_unknown_point_rejected_at_registration(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultPlan().on("protocol.teleport", reset_connection)

    def test_every_documented_point_registers(self):
        plan = FaultPlan()
        for point in POINTS:
            plan.on(point, reset_connection)
        assert len(plan.rules) == len(POINTS)

    def test_every_point_has_exactly_one_call_site(self):
        """A point whose production code was deleted must leave ``POINTS``
        with it, and no point may be fired from two places."""
        src = Path(faults.__file__).resolve().parents[1]
        text = "".join(path.read_text() for path in sorted(src.rglob("*.py")))
        sites = {point: text.count(f'faults.fire("{point}"') for point in POINTS}
        assert sites == {point: 1 for point in POINTS}

    def test_arming_and_disarming(self):
        plan = FaultPlan().on("store.append", reset_connection)
        with plan:
            assert faults.active()
            with pytest.raises(ConnectionResetError):
                faults.fire("store.append", path="x", handle=None, line="")
        assert not faults.active()
        faults.fire("store.append", path="x", handle=None, line="")  # disarmed

    def test_double_arming_rejected(self):
        plan = FaultPlan()
        with plan:
            with pytest.raises(RuntimeError, match="already armed"):
                plan.__enter__()

    def test_plans_nest(self):
        outer = FaultPlan().on("store.lock", delay(0.0))
        inner = FaultPlan().on("store.append", reset_connection)
        with outer, inner:
            faults.fire("store.lock", path="x")
            with pytest.raises(ConnectionResetError):
                faults.fire("store.append", path="x", handle=None, line="")
        assert outer.fired("store.lock") == 1
        assert inner.fired("store.append") == 1


class TestRuleSemantics:
    def test_times_caps_firings(self):
        with FaultPlan() as plan:
            plan.on("store.lock", reset_connection, times=2)
            for _ in range(2):
                with pytest.raises(ConnectionResetError):
                    faults.fire("store.lock", path="x")
            faults.fire("store.lock", path="x")  # third match: rule exhausted
        assert plan.fired("store.lock") == 2

    def test_after_skips_early_matches(self):
        with FaultPlan() as plan:
            plan.on("store.append", reset_connection, after=2)
            faults.fire("store.append", path="x", handle=None, line="")
            faults.fire("store.append", path="x", handle=None, line="")
            with pytest.raises(ConnectionResetError):  # the *third* append fails
                faults.fire("store.append", path="x", handle=None, line="")
        assert plan.fired() == 1

    def test_when_predicate_filters_on_context(self):
        with FaultPlan() as plan:
            plan.on(
                "store.append",
                reset_connection,
                when=lambda context: "shard-03" in str(context["path"]),
            )
            faults.fire("store.append", path="shard-01.jsonl", handle=None, line="")
            with pytest.raises(ConnectionResetError):
                faults.fire("store.append", path="shard-03.jsonl", handle=None, line="")
        assert plan.fired() == 1

    def test_unlimited_times(self):
        with FaultPlan() as plan:
            plan.on("store.lock", delay(0.0), times=None)
            for _ in range(10):
                faults.fire("store.lock", path="x")
        assert plan.fired() == 10

    def test_validation(self):
        with pytest.raises(ValueError, match="times"):
            FaultPlan().on("store.lock", delay(0.0), times=0)
        with pytest.raises(ValueError, match="after"):
            FaultPlan().on("store.lock", delay(0.0), after=-1)
        with pytest.raises(ValueError, match="probability"):
            FaultPlan().chance(1.5)

    def test_injection_log_carries_context_and_hit_count(self):
        with FaultPlan() as plan:
            plan.on("store.lock", delay(0.0), times=None)
            faults.fire("store.lock", path="a")
            faults.fire("store.lock", path="b")
        assert [injection.hits for injection in plan.log] == [1, 2]
        assert [injection.context["path"] for injection in plan.log] == ["a", "b"]


class TestDeterminism:
    def _schedule(self, seed):
        with FaultPlan(seed=seed) as plan:
            plan.on("store.lock", delay(0.0), times=None, when=plan.chance(0.5))
            for _ in range(64):
                faults.fire("store.lock", path="x")
            return plan.fired()

    def test_chance_is_a_pure_function_of_the_seed(self):
        assert self._schedule(7) == self._schedule(7)

    def test_different_seeds_give_different_schedules(self):
        assert len({self._schedule(seed) for seed in range(8)}) > 1

    def test_chance_does_not_touch_global_rng(self):
        import random

        random.seed(1234)
        expected = random.random()
        random.seed(1234)
        self._schedule(0)
        assert random.random() == expected


class TestThreadSafety:
    def test_concurrent_fire_counts_exactly(self):
        with FaultPlan() as plan:
            plan.on("store.lock", delay(0.0), times=100)
            threads = [
                threading.Thread(
                    target=lambda: [faults.fire("store.lock", path="x") for _ in range(50)]
                )
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert plan.fired() == 100  # the cap held under contention


class TestCannedActions:
    def test_injected_fault_is_distinct_from_production_errors(self):
        assert issubclass(InjectedFault, RuntimeError)
        assert not issubclass(InjectedFault, OSError)

    def test_reset_connection_raises_econnreset(self):
        import errno

        with pytest.raises(ConnectionResetError) as info:
            reset_connection(faults.Injection("protocol.send", 1, {}))
        assert info.value.errno == errno.ECONNRESET

    def test_oom_stops_at_its_cap_without_an_rlimit(self):
        action = faults.oom(limit_mb=16)
        with pytest.raises(MemoryError, match="16 MiB cap"):
            action(faults.Injection("backend.qualify", 1, {}))
