"""Sandboxed kernel qualification: crashes die in the child, never the host.

The sandbox exists so that the *first* execution of a freshly compiled kernel
— the moment a miscompile segfaults, OOMs, or spins — happens in a
disposable subprocess.  Every test here either drives a real failure mode
through an injected fault and asserts the classified verdict, or pins the
host-side integration: a rejected kernel demotes the plan with a recorded
``sandbox_*`` reason while the host process (this test runner) survives.
"""

import os

import numpy as np
import pytest

from repro.testing import faults
from repro.tir import (
    EngineStats,
    alloc_buffers,
    compile_plan,
    lower,
    native_toolchain,
    run,
    tier_state,
)
from repro.tir import sandbox
from repro.tir.backend import run_tiered
from tests.conftest import small_conv_hwc

TOOLCHAIN_KIND = native_toolchain()[0]
needs_toolchain = pytest.mark.skipif(
    TOOLCHAIN_KIND is None, reason="no native toolchain (C compiler)"
)


def _fresh_plan():
    return compile_plan(lower(small_conv_hwc()))


def _qualify_inputs(plan, seed=0):
    """(arrays in param order, expected output) for one qualification."""
    buffers = alloc_buffers(plan.func, np.random.default_rng(seed))
    expected = run(plan.func, {t: a.copy() for t, a in buffers.items()})
    arrays = [np.array(buffers[t], copy=True) for t in plan.func.params]
    return arrays, expected


def _in_sandbox(context):
    return context.get("where") == "sandbox"


class TestQualify:
    @needs_toolchain
    def test_good_kernel_qualifies(self):
        plan = _fresh_plan()
        arrays, expected = _qualify_inputs(plan)
        verdict = sandbox.qualify(plan.func, arrays, expected)
        assert verdict.ok and verdict.outcome == "qualified"
        assert verdict.exitcode == 0

    @needs_toolchain
    def test_mismatch_is_rejected_not_raised(self):
        plan = _fresh_plan()
        arrays, expected = _qualify_inputs(plan)
        verdict = sandbox.qualify(plan.func, arrays, expected + 1)
        assert not verdict.ok and verdict.outcome == "mismatch"

    @needs_toolchain
    def test_segfault_dies_in_child_and_classifies(self):
        plan = _fresh_plan()
        arrays, expected = _qualify_inputs(plan)
        with faults.FaultPlan(seed=0) as plan_f:
            plan_f.on("backend.qualify", faults.segfault, when=_in_sandbox)
            verdict = sandbox.qualify(plan.func, arrays, expected)
        assert not verdict.ok and verdict.outcome == "segfault"
        assert "SIGSEGV" in verdict.reason
        assert verdict.exitcode is not None and verdict.exitcode < 0

    @needs_toolchain
    def test_hang_hits_wall_clock_watchdog(self):
        plan = _fresh_plan()
        arrays, expected = _qualify_inputs(plan)
        with faults.FaultPlan(seed=0) as plan_f:
            plan_f.on("backend.qualify", faults.hang(60.0), when=_in_sandbox)
            verdict = sandbox.qualify(plan.func, arrays, expected, timeout_s=1.0)
        assert not verdict.ok and verdict.outcome == "hang"
        assert verdict.elapsed_s < 30.0  # watchdog, not the 60s sleep

    @needs_toolchain
    @pytest.mark.skipif(os.name != "posix", reason="rlimits are POSIX-only")
    def test_oom_is_contained_by_rlimit(self):
        plan = _fresh_plan()
        arrays, expected = _qualify_inputs(plan)
        with faults.FaultPlan(seed=0) as plan_f:
            plan_f.on("backend.qualify", faults.oom(8192), when=_in_sandbox)
            verdict = sandbox.qualify(plan.func, arrays, expected, memory_mb=512)
        assert not verdict.ok and verdict.outcome == "oom"

    def test_no_toolchain_reports_unavailable(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        native_toolchain(refresh=True)
        try:
            plan = _fresh_plan()
            arrays, expected = _qualify_inputs(plan)
            verdict = sandbox.qualify(plan.func, arrays, expected)
            assert not verdict.ok and verdict.outcome == "unavailable"
        finally:
            monkeypatch.delenv("REPRO_DISABLE_NATIVE")
            native_toolchain(refresh=True)


class TestPromotionIntegration:
    @needs_toolchain
    def test_sandbox_rejection_demotes_with_counters(self):
        plan = _fresh_plan()
        stats = EngineStats()
        buffers = alloc_buffers(plan.func, np.random.default_rng(0))
        with faults.FaultPlan(seed=0) as plan_f:
            plan_f.on("backend.qualify", faults.segfault, when=_in_sandbox)
            result = run_tiered(plan, buffers, stats=stats, promote_after=1)
        state = tier_state(plan)
        assert state.demoted and state.tier == "vectorized"
        assert state.sandbox_outcome == "segfault"
        assert "sandbox rejected" in state.demotion_reason
        assert stats.sandbox_qualifications == 1
        assert stats.sandbox_rejections == 1
        # The vectorized result is still correct — the failure was absorbed.
        fresh = alloc_buffers(plan.func, np.random.default_rng(0))
        assert np.array_equal(result, run(plan.func, fresh))

    @needs_toolchain
    def test_qualified_kernel_promotes_and_records_outcome(self):
        plan = _fresh_plan()
        stats = EngineStats()
        buffers = alloc_buffers(plan.func, np.random.default_rng(1))
        run_tiered(plan, buffers, stats=stats, promote_after=1)
        state = tier_state(plan)
        assert state.tier == "native" and not state.demoted
        assert state.sandbox_outcome == "qualified"
        assert stats.sandbox_qualifications == 1
        assert stats.sandbox_rejections == 0

    @needs_toolchain
    def test_disable_sandbox_env_skips_qualification(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_SANDBOX", "1")
        plan = _fresh_plan()
        stats = EngineStats()
        buffers = alloc_buffers(plan.func, np.random.default_rng(2))
        run_tiered(plan, buffers, stats=stats, promote_after=1)
        state = tier_state(plan)
        assert state.tier == "native"
        assert state.sandbox_outcome is None
        assert stats.sandbox_qualifications == 0

    @needs_toolchain
    def test_demoted_plan_still_bit_identical(self):
        plan = _fresh_plan()
        stats = EngineStats()
        with faults.FaultPlan(seed=0) as plan_f:
            plan_f.on("backend.qualify", faults.segfault, when=_in_sandbox)
            buffers = alloc_buffers(plan.func, np.random.default_rng(3))
            run_tiered(plan, buffers, stats=stats, promote_after=1)
        assert tier_state(plan).demoted
        buffers = alloc_buffers(plan.func, np.random.default_rng(4))
        reference = run(plan.func, {t: a.copy() for t, a in buffers.items()})
        got = run_tiered(plan, buffers, stats=stats, promote_after=1)
        assert np.array_equal(got, reference)

    @needs_toolchain
    def test_every_native_tier_field_equals_its_counter(self):
        """Promote, sandbox-reject, demote: each ``EngineStats`` native-tier
        field and the ``tir.<field>`` telemetry counter come from one
        increment (``backend._count``), so after the drill they are equal —
        and none of them is still zero."""
        from repro.telemetry import metrics

        fields = (
            "native_runs",
            "native_promotions",
            "native_demotions",
            "sandbox_qualifications",
            "sandbox_rejections",
        )
        stats = EngineStats()
        with metrics.collecting() as registry:
            promoted = _fresh_plan()
            for seed in range(3):  # promotes on the first run, then runs natively
                buffers = alloc_buffers(promoted.func, np.random.default_rng(seed))
                run_tiered(promoted, buffers, stats=stats, promote_after=1)
            assert tier_state(promoted).tier == "native"

            rejected = _fresh_plan()
            with faults.FaultPlan(seed=0) as plan_f:
                plan_f.on("backend.qualify", faults.segfault, when=_in_sandbox)
                buffers = alloc_buffers(rejected.func, np.random.default_rng(5))
                run_tiered(rejected, buffers, stats=stats, promote_after=1)
            assert tier_state(rejected).sandbox_outcome == "segfault"

            def raising(arrays):
                raise RuntimeError("simulated kernel fault")

            tier_state(promoted).kernel.run = raising
            buffers = alloc_buffers(promoted.func, np.random.default_rng(6))
            run_tiered(promoted, buffers, stats=stats, promote_after=1)
            assert tier_state(promoted).demoted
            counters = registry.counters()
        observed = {name: getattr(stats, name) for name in fields}
        assert observed == {name: counters.get(f"tir.{name}") for name in fields}
        assert observed == {
            "native_runs": 2,
            "native_promotions": 1,
            "native_demotions": 2,
            "sandbox_qualifications": 2,
            "sandbox_rejections": 1,
        }


class TestKnobs:
    def test_env_timeout_and_memory_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANDBOX_TIMEOUT", "7.5")
        monkeypatch.setenv("REPRO_SANDBOX_MEMORY_MB", "256")
        assert sandbox.default_timeout_s() == 7.5
        assert sandbox.default_memory_mb() == 256

    def test_invalid_env_values_fall_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANDBOX_TIMEOUT", "banana")
        monkeypatch.setenv("REPRO_SANDBOX_MEMORY_MB", "-3")
        assert sandbox.default_timeout_s() == 120.0
        assert sandbox.default_memory_mb() == 4096

    def test_sandbox_enabled_env(self, monkeypatch):
        assert sandbox.sandbox_enabled()
        monkeypatch.setenv("REPRO_DISABLE_SANDBOX", "1")
        assert not sandbox.sandbox_enabled()
