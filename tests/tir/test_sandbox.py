"""Sandboxed kernel qualification: crashes die in the child, never the host.

The sandbox exists so that the *first* execution of a freshly compiled kernel
— the moment a miscompile segfaults, OOMs, or spins — happens in a
disposable subprocess.  Every test here either drives a real failure mode
through an injected fault and asserts the classified verdict, or pins the
host-side integration: a rejected kernel demotes the plan with a recorded
``sandbox_*`` reason while the host process (this test runner) survives.
"""

import multiprocessing
import os
import signal
import tempfile
import threading
import time

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
from repro.tir import backend, compile_native, sandbox
from repro.tir.backend import run_tiered, same_bits
from repro.workloads.dense import matmul_fp32
from tests.conftest import float_copy, small_conv_hwc

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
    def test_nan_output_qualifies(self):
        """The verdict compares bytes: a correct NaN output is bit-identical."""
        func, buffers = float_copy([np.nan, -0.0, 1.0])
        arrays = [np.array(buffers[t], copy=True) for t in func.params]
        verdict = sandbox.qualify(func, arrays, buffers[func.inputs[0]].copy())
        assert verdict.ok and verdict.outcome == "qualified", verdict.reason

    @needs_toolchain
    def test_flipped_zero_sign_is_a_mismatch(self):
        func, buffers = float_copy([-0.0, 1.0])
        arrays = [np.array(buffers[t], copy=True) for t in func.params]
        expected = np.array([0.0, 1.0], dtype=np.float32)  # the kernel writes -0.0
        verdict = sandbox.qualify(func, arrays, expected)
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
    def test_hang_hits_wall_clock_watchdog(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANDBOX_TIMEOUT", "1")
        plan = _fresh_plan()
        arrays, expected = _qualify_inputs(plan)
        with faults.FaultPlan(seed=0) as plan_f:
            plan_f.on("backend.qualify", faults.hang(60.0), when=_in_sandbox)
            verdict = sandbox.qualify(plan.func, arrays, expected)
        assert not verdict.ok and verdict.outcome == "hang"
        assert verdict.elapsed_s < 30.0  # watchdog, not the 60s sleep

    @needs_toolchain
    @pytest.mark.skipif(os.name != "posix", reason="rlimits are POSIX-only")
    def test_oom_is_contained_by_rlimit(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANDBOX_MEMORY_MB", "512")
        plan = _fresh_plan()
        arrays, expected = _qualify_inputs(plan)
        with faults.FaultPlan(seed=0) as plan_f:
            plan_f.on("backend.qualify", faults.oom(8192), when=_in_sandbox)
            verdict = sandbox.qualify(plan.func, arrays, expected)
        assert not verdict.ok and verdict.outcome == "oom"

    @needs_toolchain
    def test_a_toolchain_lock_held_at_the_fork_does_not_wedge_the_child(self, monkeypatch):
        """Qualification reads the discovered toolchain without
        ``_TOOLCHAIN_LOCK``, in the host and in the child that builds with
        it: a fork copies a lock another host thread holds, and nothing in
        the child would ever release it."""
        from repro.tir import backend

        monkeypatch.setenv("REPRO_SANDBOX_TIMEOUT", "10")
        plan = _fresh_plan()
        arrays, expected = _qualify_inputs(plan)
        verdicts = []
        worker = threading.Thread(
            target=lambda: verdicts.append(sandbox.qualify(plan.func, arrays, expected)),
            daemon=True,
        )
        with backend._TOOLCHAIN_LOCK:
            worker.start()
            worker.join(timeout=20)
            finished = not worker.is_alive()
        assert finished, "qualification blocked on the toolchain lock"
        assert verdicts[0].ok, verdicts[0].reason

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


@needs_toolchain
class TestForkAfterParallelKernels:
    """The pool's worker threads are not copied into a forked child, which
    would wait forever for them to finish their shares; the fork guard runs
    every kernel in a child on one thread, without the pool."""

    def _ran_in_host(self, monkeypatch):
        """A kernel with parallel loops that has run here on two or more threads."""
        monkeypatch.setattr(backend, "_THREADS", max(2, backend._width()))
        assert backend._pool() is not None
        plan = compile_plan(lower(matmul_fp32(32, 32, 16)))
        kernel = compile_native(plan.func)
        assert kernel.source.parallel_loops == 2
        arrays, expected = _qualify_inputs(plan)
        assert same_bits(kernel.run([a.copy() for a in arrays]), expected)
        return kernel, arrays, expected

    def test_the_sandbox_still_qualifies_a_parallel_kernel(self, monkeypatch):
        self._ran_in_host(monkeypatch)
        monkeypatch.setenv("REPRO_SANDBOX_TIMEOUT", "30")
        plan = compile_plan(lower(matmul_fp32(32, 48, 16, name="next")))
        verdict = sandbox.qualify(plan.func, *_qualify_inputs(plan))
        assert verdict.outcome == "qualified", verdict.describe()
        assert verdict.source.parallel_loops == 2

    def test_a_forked_child_runs_a_loaded_parallel_kernel(self, monkeypatch):
        kernel, arrays, expected = self._ran_in_host(monkeypatch)
        pid = os.fork()
        if pid == 0:  # the child: exit status 0 only for the right bytes on one thread
            code = 2
            try:
                signal.alarm(30)  # a wedged region dies by SIGALRM
                one = backend._kernel_threads() == 1 and backend._pool() is None
                code = 0 if one and same_bits(kernel.run(arrays), expected) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung in the parallel kernel")
            time.sleep(0.01)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
        assert backend._kernel_threads() >= 2  # the host keeps its threads


@needs_toolchain
class TestStart:
    """``start`` forks and returns; ``wait`` is the watchdog; ``close`` leaves
    nothing behind."""

    @pytest.fixture(autouse=True)
    def _workdirs_here(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        self.tmp = tmp_path

    def _left(self):
        return list(self.tmp.glob("repro_sandbox_*"))

    def test_start_returns_a_running_child_and_wait_qualifies(self):
        plan = _fresh_plan()
        arrays, expected = _qualify_inputs(plan)
        handle = sandbox.start(plan.func, arrays, expected)
        assert handle.running and len(self._left()) == 1
        verdict = handle.wait()
        assert verdict.ok and verdict.outcome == "qualified"
        assert handle.wait() is verdict and not handle.running
        assert self._left() == [] and multiprocessing.active_children() == []

    def test_the_budget_counts_from_the_launch(self, monkeypatch):
        """A hung child that used up its budget before anyone waited is
        classified at once."""
        monkeypatch.setenv("REPRO_SANDBOX_TIMEOUT", "1")
        plan = _fresh_plan()
        arrays, expected = _qualify_inputs(plan)
        with faults.FaultPlan(seed=0) as plan_f:
            plan_f.on("backend.qualify", faults.hang(60.0), when=_in_sandbox)
            handle = sandbox.start(plan.func, arrays, expected)
            time.sleep(1.5)
            waited = time.perf_counter()
            verdict = handle.wait()
        assert verdict.outcome == "hang" and "watchdog" in verdict.reason
        assert time.perf_counter() - waited < 1.0
        assert self._left() == []

    def test_close_kills_a_running_child(self):
        plan = _fresh_plan()
        arrays, expected = _qualify_inputs(plan)
        with faults.FaultPlan(seed=0) as plan_f:
            plan_f.on("backend.qualify", faults.hang(60.0), when=_in_sandbox)
            handle = sandbox.start(plan.func, arrays, expected)
            handle.close()
        assert not handle.running
        assert self._left() == [] and multiprocessing.active_children() == []

    def test_a_lowering_error_is_a_finished_handle(self, monkeypatch):
        from repro.codegen import lowlevel

        def refuse(func):
            raise lowlevel.LoweringError("no C for this")

        monkeypatch.setattr(lowlevel, "generate_c", refuse)
        plan = _fresh_plan()
        handle = sandbox.start(plan.func, *_qualify_inputs(plan))
        assert not handle.running
        assert handle.wait().outcome == "compile_error"
        assert self._left() == []

    def test_a_failed_fork_is_an_error_verdict(self, monkeypatch):
        def no_fork(process):
            raise OSError("fork refused")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_fork)
        plan = _fresh_plan()
        verdict = sandbox.start(plan.func, *_qualify_inputs(plan)).wait()
        assert verdict.outcome == "error" and "fork refused" in verdict.reason
        assert self._left() == []

    def test_a_library_that_cannot_be_kept_is_an_error_verdict(self, monkeypatch):
        def no_move(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(sandbox.shutil, "move", no_move)
        plan = _fresh_plan()
        verdict = sandbox.qualify(plan.func, *_qualify_inputs(plan))
        assert verdict.outcome == "error" and "disk full" in verdict.reason
        assert self._left() == []


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
    def test_every_native_tier_field_counts_its_events(self):
        """Promote, sandbox-reject, demote: each ``EngineStats`` native-tier
        field counts exactly the events of the drill — and none of them is
        still zero."""
        fields = (
            "native_runs",
            "native_promotions",
            "native_demotions",
            "sandbox_qualifications",
            "sandbox_rejections",
        )
        stats = EngineStats()
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
        observed = {name: getattr(stats, name) for name in fields}
        assert observed == {
            "native_runs": 2,
            "native_promotions": 1,
            "native_demotions": 2,
            "sandbox_qualifications": 2,
            "sandbox_rejections": 1,
        }


@needs_toolchain
class TestCompilerInTheChild:
    """The child builds the kernel with the toolchain's ``cc``: a compiler
    that fails or hangs is a verdict on the promotion, never a dead host."""

    @pytest.fixture(autouse=True)
    def _workdirs_here(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        self.tmp = tmp_path

    def _promote_with(self, monkeypatch, script):
        from repro.tir import backend

        fake_cc = self.tmp / "fake-cc"
        fake_cc.write_text(script)
        fake_cc.chmod(0o755)
        kind, _, flags, macros = backend._toolchain()
        monkeypatch.setattr(backend, "_TOOLCHAIN", (kind, str(fake_cc), flags, macros))
        plan = _fresh_plan()
        buffers = alloc_buffers(plan.func, np.random.default_rng(0))
        expected = run(plan.func, {t: a.copy() for t, a in buffers.items()})
        stats = EngineStats()
        got = run_tiered(plan, buffers, stats=stats, promote_after=1)
        assert np.array_equal(got, expected)
        assert stats.sandbox_rejections == 1 and stats.native_promotions == 0
        assert list(self.tmp.glob("repro_sandbox_*")) == []
        assert multiprocessing.active_children() == []
        state = tier_state(plan)
        assert state.demoted and state.tier == "vectorized"
        return state

    def test_a_failing_compiler_is_a_compile_error(self, monkeypatch):
        state = self._promote_with(
            monkeypatch, "#!/bin/sh\necho 'cc: internal error' >&2\nexit 1\n"
        )
        assert state.sandbox_outcome == "compile_error"
        assert state.demotion_reason.startswith("sandbox rejected native kernel (compile_error:")
        assert "cc: internal error" in state.demotion_reason

    def test_a_hung_compiler_is_a_hang(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_COMPILE_TIMEOUT", "0.3")
        started = time.perf_counter()
        state = self._promote_with(monkeypatch, "#!/bin/sh\nexec sleep 600\n")
        assert time.perf_counter() - started < 30.0  # the compile timeout, not the sleep
        assert state.sandbox_outcome == "hang"
        assert state.demotion_reason.startswith("sandbox rejected native kernel (hang:")
        assert "timed out after 0.3s" in state.demotion_reason


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

    @pytest.mark.parametrize("raw", ["0.5", "0", "1.9", "banana", ""])
    def test_memory_must_be_a_positive_integer(self, monkeypatch, raw):
        """A value that is not a positive integer never lifts the limit:
        ``int(0.5)`` is 0, and a 0 headroom used to skip ``RLIMIT_AS``."""
        monkeypatch.setenv("REPRO_SANDBOX_MEMORY_MB", raw)
        assert sandbox.default_memory_mb() == 4096


class TestClassifyExit:
    """A child that died without a verdict is named by how it died."""

    @pytest.mark.parametrize(
        "exitcode, outcome, words",
        [
            (None, "hang", "never exited"),
            (0, "crash", "status 0"),
            (3, "crash", "status 3"),
            (-signal.SIGSEGV, "segfault", "SIGSEGV"),
            (-signal.SIGBUS, "segfault", "SIGBUS"),
            (-signal.SIGKILL, "oom", "SIGKILL"),
            (-signal.SIGXCPU, "hang", "RLIMIT_CPU"),
            (-signal.SIGTERM, "crash", "SIGTERM"),
        ],
        ids=["none", "zero", "status", "segv", "bus", "kill", "xcpu", "other-signal"],
    )
    def test_exit_classification(self, exitcode, outcome, words):
        verdict = sandbox._classify_exit(exitcode, 0.25)
        assert not verdict.ok
        assert verdict.outcome == outcome
        assert words in verdict.reason
        assert verdict.exitcode == exitcode and verdict.elapsed_s == 0.25
