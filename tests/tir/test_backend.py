"""Tiered native execution: promotion, demotion, and bit identity.

The native tier may only ever *speed up* execution: every test here pins one
of the guarantees that make that true — plans promote only after N warm runs,
only when statically proved, only when the compiled kernel reproduces the
vectorized result bit for bit, and any failure demotes the plan back to the
vectorized tier instead of surfacing an error.
"""

import numpy as np
import pytest

from repro.codegen.lowlevel import LoweringError
from repro.tir import (
    EngineStats,
    Executor,
    alloc_buffers,
    compile_plan,
    compile_native,
    lower,
    native_eligibility_reason,
    native_toolchain,
    plan_cache,
    run,
    tier_state,
)
from repro.tir.backend import instruction_support_reason, run_tiered, same_bits
from repro.workloads.dense import matmul_fp32
from tests.conftest import float_copy, small_conv_hwc

TOOLCHAIN_KIND = native_toolchain()[0]
needs_toolchain = pytest.mark.skipif(
    TOOLCHAIN_KIND is None, reason="no native toolchain (C compiler)"
)


def _proved_plan():
    return compile_plan(lower(small_conv_hwc()))


def _unproved_plan():
    """A gather whose data-dependent index the static verifier cannot prove."""
    from repro.dsl import compute, placeholder

    idx = placeholder((8,), "int32", "idx")
    a = placeholder((8,), "int32", "a")
    out = compute((8,), lambda i: a[idx[i] % 8], name="gather")
    return compile_plan(lower(out))


def _fresh_buffers(plan, seed=0):
    return alloc_buffers(plan.func, np.random.default_rng(seed))


def _reference(plan, buffers):
    return run(plan.func, {t: a.copy() for t, a in buffers.items()})


class TestEligibility:
    @needs_toolchain
    def test_proved_conv_is_eligible(self):
        assert native_eligibility_reason(_proved_plan()) is None

    def test_unproved_gather_is_not(self):
        reason = native_eligibility_reason(_unproved_plan())
        assert reason is not None and "proved" in reason

    def test_plan_with_a_fallback_nest_is_not(self):
        from repro.dsl.expr import Compare, Const, Var
        from repro.dsl import placeholder
        from repro.dsl.tensor import Tensor
        from repro.tir import For, IfThenElse, PrimFunc, Store

        a = placeholder((4,), "int32", "a")
        out = Tensor((4,), "int32", "out")
        i = Var("i")
        body = For(
            i, 4, IfThenElse(Compare("<", i, Const(2)), Store(out, [i], a[i]), Store(out, [i], a[i] + 1))
        )
        plan = compile_plan(PrimFunc("branchy", [a, out], body, op=None))
        assert native_eligibility_reason(plan) == "plan has 1 interpreter-fallback nest(s)"

    def test_plan_without_nests_is_not(self):
        from repro.tir import PrimFunc, SeqStmt

        plan = compile_plan(PrimFunc("empty", [], SeqStmt([]), op=None))
        assert native_eligibility_reason(plan) == "plan has no vectorized nests to compile"

    def test_proved_plan_the_emitter_refuses_is_not(self):
        """Float floor division vectorizes and proves, but has no native form."""
        from repro.dsl import compute, placeholder

        a = placeholder((4,), "float32", "a")
        plan = compile_plan(lower(compute((4,), lambda i: a[i] // 0.1, name="fdiv")))
        assert plan.stats.proved_nests == plan.stats.vector_nests == 1
        assert native_eligibility_reason(plan) == "float32 FloorDiv has no native lowering"


class TestPromotion:
    @needs_toolchain
    def test_promotes_after_n_warm_runs(self):
        plan = _proved_plan()
        stats = EngineStats()
        state = tier_state(plan)
        for i in range(2):
            buffers = _fresh_buffers(plan, seed=i)
            run_tiered(plan, buffers, stats=stats, promote_after=3)
            assert state.tier == "vectorized"
            assert state.warm_runs == i + 1
        run_tiered(plan, _fresh_buffers(plan, seed=2), stats=stats, promote_after=3)
        assert state.tier == "native"
        assert state.kernel is not None
        assert stats.native_promotions == 1
        assert not state.demoted

    @needs_toolchain
    def test_native_runs_bit_identical_and_counted(self):
        plan = _proved_plan()
        stats = EngineStats()
        for i in range(2):
            run_tiered(plan, _fresh_buffers(plan, seed=i), stats=stats, promote_after=2)
        assert tier_state(plan).tier == "native"
        buffers = _fresh_buffers(plan, seed=99)
        expected = _reference(plan, buffers)
        got = run_tiered(plan, buffers, stats=stats, promote_after=2)
        np.testing.assert_array_equal(got, expected)
        assert stats.native_runs == 1
        assert tier_state(plan).tier == "native"  # the native run did not demote

    @needs_toolchain
    def test_spot_check_runs_at_promotion(self, monkeypatch):
        """Promotion happens on the threshold-crossing run itself and the
        returned result is still the (trusted) vectorized one."""
        plan = _proved_plan()
        buffers = _fresh_buffers(plan)
        expected = _reference(plan, buffers)
        got = run_tiered(plan, buffers, stats=EngineStats(), promote_after=1)
        np.testing.assert_array_equal(got, expected)
        assert tier_state(plan).tier == "native"

    @needs_toolchain
    def test_spot_check_runs_the_kernel_on_every_cpu(self, monkeypatch):
        """The host spot-checks the kernel on the threads it will run on;
        only the forked sandbox child runs it on one."""
        from repro.tir import backend

        plan = compile_plan(lower(matmul_fp32(32, 32, 16)))
        threads = []
        real_run = backend.NativeKernel.run

        def recording(kernel, arrays):
            threads.append(backend._kernel_threads())
            return real_run(kernel, arrays)

        monkeypatch.setattr(backend.NativeKernel, "run", recording)
        buffers = _fresh_buffers(plan)
        expected = _reference(plan, buffers)
        assert same_bits(run_tiered(plan, buffers, stats=EngineStats(), promote_after=1), expected)
        state = tier_state(plan)
        assert state.tier == "native" and state.kernel.source.parallel_loops == 2
        assert threads == [backend._width()]

    def test_unproved_plan_never_promotes(self):
        plan = _unproved_plan()
        stats = EngineStats()
        for i in range(4):
            buffers = _fresh_buffers(plan, seed=i)
            expected = _reference(plan, buffers)
            got = run_tiered(plan, buffers, stats=stats, promote_after=2)
            np.testing.assert_array_equal(got, expected)
        state = tier_state(plan)
        assert state.tier == "vectorized"
        assert state.kernel is None
        assert state.demoted
        assert "proved" in state.demotion_reason
        assert stats.native_promotions == 0 and stats.native_runs == 0


def _f32(*values):
    return np.array(values, dtype=np.float32)


_OTHER_NAN = np.array([0x7FC00001], dtype=np.uint32).view(np.float32)
_TRANSPOSED = np.arange(6, dtype=np.int32).reshape(2, 3).T  # a non-contiguous view


class TestSameBits:
    """The one comparison behind every bit-identity check: bytes, shape and
    dtype, never ``==`` on values."""

    @pytest.mark.parametrize(
        "a, b, same",
        [
            (_f32(1.5, -2.0), _f32(1.5, -2.0), True),
            (_f32(-0.0), _f32(0.0), False),
            (_f32(np.nan, 1.0), _f32(np.nan, 1.0), True),
            (_f32(np.nan), _OTHER_NAN, False),
            (np.zeros(2, np.float32), np.zeros(2, np.int32), False),
            (np.zeros((2, 2), np.int8), np.zeros(4, np.int8), False),
            (_TRANSPOSED, _TRANSPOSED.copy(), True),
            ([1.0, 2.0], np.array([1.0, 2.0]), True),
        ],
        ids=[
            "equal",
            "zero-sign",
            "same-nan",
            "nan-payload",
            "dtype",
            "shape",
            "strided-view",
            "array-like",
        ],
    )
    def test_compares_bytes_shape_and_dtype(self, a, b, same):
        assert same_bits(a, b) is same
        assert same_bits(b, a) is same


class TestDemotion:
    """Every promotion ends in ``backend.load_kernel`` loading the library the
    sandbox child qualified, so breaking it breaks promotion."""

    def _demotes_on_compile_failure(self, monkeypatch):
        import repro.tir.backend as backend

        def broken_load(source, so_path):
            raise LoweringError("simulated compile failure")

        monkeypatch.setattr(backend, "load_kernel", broken_load)
        plan = _proved_plan()
        stats = EngineStats()
        for i in range(3):
            buffers = _fresh_buffers(plan, seed=i)
            expected = _reference(plan, buffers)
            got = run_tiered(plan, buffers, stats=stats, promote_after=2)
            np.testing.assert_array_equal(got, expected)
        state = tier_state(plan)
        assert state.demoted
        assert "compile failed" in state.demotion_reason
        assert stats.native_demotions == 1  # failure is permanent: no retries
        assert stats.native_promotions == 0
        return state

    def _demotes_on_bit_mismatch(self, monkeypatch):
        import repro.tir.backend as backend

        class WrongKernel:
            def __init__(self, source):
                self.source = source

            def run(self, arrays):
                out = np.array(arrays[-1], copy=True)
                out += 1
                return out

        monkeypatch.setattr(backend, "load_kernel", lambda source, so_path: WrongKernel(source))
        plan = _proved_plan()
        stats = EngineStats()
        buffers = _fresh_buffers(plan)
        expected = _reference(plan, buffers)
        got = run_tiered(plan, buffers, stats=stats, promote_after=1)
        np.testing.assert_array_equal(got, expected)  # vectorized result wins
        state = tier_state(plan)
        assert state.demoted
        assert "bit-identical" in state.demotion_reason
        assert state.tier == "vectorized" and state.kernel is None
        assert stats.native_demotions == 1
        return state

    @needs_toolchain
    def test_demotes_on_compile_failure(self, monkeypatch):
        state = self._demotes_on_compile_failure(monkeypatch)
        assert state.sandbox_outcome == "qualified"  # the library that failed to load

    @needs_toolchain
    def test_demotes_on_bit_mismatch(self, monkeypatch):
        state = self._demotes_on_bit_mismatch(monkeypatch)
        assert state.sandbox_outcome == "qualified"

    @needs_toolchain
    def test_demotes_a_kernel_that_flips_a_zero_sign(self, monkeypatch):
        import repro.tir.backend as backend

        class UnsignedZeros:
            def __init__(self, source):
                self.source = source

            def run(self, arrays):
                arrays[-1][...] = arrays[0] + np.float32(0.0)  # -0.0 -> +0.0
                return arrays[-1]

        monkeypatch.setattr(backend, "load_kernel", lambda source, so_path: UnsignedZeros(source))
        func, buffers = float_copy([-0.0, 1.0])
        plan = compile_plan(func)
        run_tiered(plan, buffers, stats=EngineStats(), promote_after=1)
        state = tier_state(plan)
        assert state.demoted and "bit-identical" in state.demotion_reason

    @needs_toolchain
    def test_demotes_a_kernel_that_raises_in_the_spot_check(self, monkeypatch):
        import repro.tir.backend as backend

        class Raising:
            def __init__(self, source):
                self.source = source

            def run(self, arrays):
                raise RuntimeError("kernel fault")

        monkeypatch.setattr(backend, "load_kernel", lambda source, so_path: Raising(source))
        plan = _proved_plan()
        buffers = _fresh_buffers(plan)
        expected = _reference(plan, buffers)
        got = run_tiered(plan, buffers, stats=EngineStats(), promote_after=1)
        np.testing.assert_array_equal(got, expected)
        state = tier_state(plan)
        assert state.demoted and state.tier == "vectorized"
        assert state.demotion_reason == "native kernel raised during spot-check: kernel fault"

    @needs_toolchain
    def test_promotes_a_kernel_whose_output_holds_a_nan(self):
        """The sandbox verdict and the host spot check both compare bytes."""
        func, buffers = float_copy([np.nan, 1.0])
        plan = compile_plan(func)
        run_tiered(plan, buffers, stats=EngineStats(), promote_after=1)
        state = tier_state(plan)
        assert state.tier == "native" and not state.demoted, state.demotion_reason

    def test_demotes_when_no_toolchain(self, monkeypatch):
        """The automatic-fallback guarantee: without any toolchain the tier
        silently keeps executing vectorized.  The plan is refused as
        ineligible, naming what the probe found missing, and never queued."""
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        try:
            native_toolchain(refresh=True)
            plan = _proved_plan()
            buffers = _fresh_buffers(plan)
            expected = _reference(plan, buffers)
            stats = EngineStats()
            got = run_tiered(plan, buffers, stats=stats, promote_after=1)
            np.testing.assert_array_equal(got, expected)
            state = tier_state(plan)
            assert native_eligibility_reason(plan) == (
                "native tier disabled via REPRO_DISABLE_NATIVE"
            )
            assert state.demoted
            assert state.demotion_reason == native_eligibility_reason(plan)
            assert state.sandbox_outcome is None and stats.sandbox_qualifications == 0
        finally:
            monkeypatch.delenv("REPRO_DISABLE_NATIVE")
            native_toolchain(refresh=True)


@needs_toolchain
class TestPromotionLifecycle:
    """One ``cc`` per promotion: qualify once, load what was qualified."""

    def _promotion_spans(self):
        from repro.telemetry import trace

        plan = compile_plan(lower(small_conv_hwc()))
        with trace.tracing() as tracer:
            run_tiered(plan, _fresh_buffers(plan), stats=EngineStats(), promote_after=1)
        assert tier_state(plan).tier == "native"
        spans = {record.name: record for record in tracer.finished()}
        assert spans["tir.native_load"].parent_id == spans["tir.native_promote"].span_id
        return plan, spans

    def test_host_loads_the_library_the_sandbox_built(self, monkeypatch):
        import repro.tir.backend as backend

        def no_second_compile(func):
            raise AssertionError("a sandbox-qualified promotion compiled a second time")

        monkeypatch.setattr(backend, "compile_native", no_second_compile)
        plan, spans = self._promotion_spans()
        assert spans["tir.sandbox_qualify"].attrs["outcome"] == "qualified"
        assert spans["tir.native_promote"].attrs["outcome"] == "promoted"
        assert spans["tir.native_promote"].attrs["instructions"] == ""  # untensorized conv
        assert tier_state(plan).kernel.source.instructions == ()
        # ... whose one reduction-update nest folds over an accumulator tile.
        assert spans["tir.native_promote"].attrs["tiled_nests"] == 1
        assert tier_state(plan).kernel.source.tiled_nests == 1

    def test_span_names_the_instruction_a_tensorized_kernel_uses(self):
        from repro.core import tensorize
        from repro.telemetry import trace
        from repro.workloads import Conv2DParams, conv2d_nchwc

        params = Conv2DParams(in_channels=8, in_height=6, in_width=6, out_channels=16, kernel=3)
        func = tensorize(conv2d_nchwc(params), "x86.avx512.vpdpbusd").func
        plan = compile_plan(func)
        with trace.tracing() as tracer:
            run_tiered(plan, _fresh_buffers(plan), stats=EngineStats(), promote_after=1)
        promotes = [r for r in tracer.finished() if r.name == "tir.native_promote"]
        reason = instruction_support_reason(func)
        if reason is not None:
            # No kernel here could be the instruction: the plan is refused
            # before a promotion (and its span) ever starts.
            assert "__AVX512VNNI__" in reason and promotes == []
            assert tier_state(plan).tier == "vectorized"
            assert tier_state(plan).demotion_reason == reason
            return
        (promote,) = promotes
        assert promote.attrs["outcome"] == "promoted"
        assert promote.attrs["instructions"] == "vpdpbusd"
        assert promote.attrs["tiled_nests"] == 1  # the intrinsic band's register tile

    def test_artefact_names_are_unique_across_threads(self):
        """Plans promoting on different threads hold different locks; the
        artefact counter alone keeps their file names apart."""
        import sys
        import threading

        import repro.tir.backend as backend

        stems, workers = [], 8

        def claim():
            mine = [backend.artefact_stem("kernel") for _ in range(500)]
            stems.extend(mine)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=claim) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert len(stems) == len(set(stems)) == workers * 500


class TestTierState:
    def test_threads_first_touching_a_plan_get_one_state(self, monkeypatch):
        """The state is created once per plan, however many threads reach an
        unstated plan together (a slow constructor widens the window)."""
        import threading
        import time

        import repro.tir.backend as backend

        class SlowState(backend.TierState):
            def __init__(self, *args, **kwargs):
                time.sleep(0.01)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(backend, "TierState", SlowState)
        plans = [_proved_plan() for _ in range(4)]
        workers = 8
        barrier = threading.Barrier(workers)
        seen = [[] for _ in plans]

        def touch():
            barrier.wait()
            for plan, states in zip(plans, seen):
                states.append(tier_state(plan))

        threads = [threading.Thread(target=touch) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        for plan, states in zip(plans, seen):
            assert len(states) == workers
            assert all(state is tier_state(plan) for state in states)


class TestPromoteAfterKnobs:
    def _runs_until_promotion_attempt(self, executor):
        """Runs before the tier tries to promote (with no toolchain the attempt
        demotes instead, which is still the threshold being crossed)."""
        plan_cache().clear()
        func = lower(small_conv_hwc())
        state = tier_state(plan_cache().get_or_compile(func))
        for n in range(1, 6):
            executor.run(func, alloc_buffers(func, np.random.default_rng(n)))
            if state.demoted or state.tier == "native":
                return n
        return None

    def test_default_is_configurable(self):
        """The default threshold is 3; ``Executor(promote_after=)`` is the
        one override."""
        assert self._runs_until_promotion_attempt(Executor(tier="native")) == 3
        assert (
            self._runs_until_promotion_attempt(Executor(tier="native", promote_after=1)) == 1
        )


class TestToolchainProbe:
    def test_a_compiler_that_cannot_run_loses_the_host_flag(self, tmp_path):
        from repro.tir.backend import _CC_FLAGS, _probe

        assert _probe(str(tmp_path / "no-such-cc")) == (
            [flag for flag in _CC_FLAGS if flag != "-march=native"],
            frozenset(),
        )

    def test_no_compiler_on_the_path(self, tmp_path, monkeypatch):
        from repro.tir.backend import cc_macros

        with monkeypatch.context() as patched:
            patched.setenv("PATH", str(tmp_path))
            try:
                assert native_toolchain(refresh=True) == (
                    None, "no C compiler (cc/gcc/clang) is available"
                )
                assert cc_macros() == frozenset()
            finally:
                patched.undo()
                native_toolchain(refresh=True)

    def test_failing_compiler_raises_lowering_error(self, tmp_path):
        from repro.codegen.lowlevel import generate_c
        from repro.tir.backend import _compile_c

        fake_cc = tmp_path / "broken-cc"
        fake_cc.write_text("#!/bin/sh\necho 'cc: internal error' >&2\nexit 1\n")
        fake_cc.chmod(0o755)
        with pytest.raises(LoweringError, match="failed:\ncc: internal error"):
            _compile_c(generate_c(lower(small_conv_hwc())), str(fake_cc), str(tmp_path / "k"))


class TestCompileTimeout:
    def test_hung_compiler_raises_lowering_error(self, tmp_path, monkeypatch):
        """A wedged cc must surface as LoweringError (which demotes the
        plan), not block promotion forever."""
        from repro.codegen.lowlevel import generate_c
        from repro.tir.backend import _compile_c

        fake_cc = tmp_path / "slow-cc"
        fake_cc.write_text("#!/bin/sh\nsleep 600\n")
        fake_cc.chmod(0o755)
        monkeypatch.setenv("REPRO_NATIVE_COMPILE_TIMEOUT", "0.3")
        source = generate_c(lower(small_conv_hwc()))
        with pytest.raises(LoweringError, match="timed out"):
            _compile_c(source, str(fake_cc), str(tmp_path / "k"))

    def test_timeout_env_parsing(self, monkeypatch):
        from repro.tir.backend import _cc_timeout_s

        monkeypatch.setenv("REPRO_NATIVE_COMPILE_TIMEOUT", "45")
        assert _cc_timeout_s() == 45.0
        monkeypatch.setenv("REPRO_NATIVE_COMPILE_TIMEOUT", "zero")
        assert _cc_timeout_s() == 120.0
        monkeypatch.setenv("REPRO_NATIVE_COMPILE_TIMEOUT", "-1")
        assert _cc_timeout_s() == 120.0


@needs_toolchain
class TestNativeKernel:
    def test_integer_conv_bit_identical_to_interpreter(self):
        func = lower(small_conv_hwc())
        kernel = compile_native(func)
        buffers = alloc_buffers(func, np.random.default_rng(3))
        expected = run(func, {t: a.copy() for t, a in buffers.items()})
        arrays = [np.array(buffers[p], copy=True) for p in func.params]
        got = kernel.run(arrays)
        np.testing.assert_array_equal(got, expected)

    def test_float_matmul_preserves_fold_order(self):
        """float32 sums are order-sensitive: the native kernel must use the
        interpreter's exact left-fold, making it bit-identical (not merely
        allclose)."""
        func = lower(matmul_fp32(8, 12, 16))
        kernel = compile_native(func)
        buffers = alloc_buffers(func, np.random.default_rng(4))
        expected = run(func, {t: a.copy() for t, a in buffers.items()})
        arrays = [np.array(buffers[p], copy=True) for p in func.params]
        got = kernel.run(arrays)
        np.testing.assert_array_equal(got, expected)

    def test_read_only_strided_input_keeps_the_plan_native(self):
        """A non-contiguous input is staged, never written back: the copy-back
        used to raise on a read-only one *after* a correct kernel run, and
        ``run_tiered`` demoted the plan for every caller sharing it."""
        plan = _proved_plan()
        stats = EngineStats()
        run_tiered(plan, _fresh_buffers(plan), stats=stats, promote_after=1)
        assert tier_state(plan).tier == "native"
        buffers = _fresh_buffers(plan, seed=5)
        expected = _reference(plan, buffers)
        for tensor in plan.func.inputs:
            strided = np.asfortranarray(buffers[tensor])
            assert not strided.flags["C_CONTIGUOUS"]
            strided.flags.writeable = False
            buffers[tensor] = strided
        before = {t: buffers[t].copy() for t in plan.func.inputs}
        for _ in range(3):
            buffers[plan.func.output][...] = 0
            got = run_tiered(plan, buffers, stats=stats, promote_after=1)
            np.testing.assert_array_equal(got, expected)
        state = tier_state(plan)
        assert state.tier == "native" and not state.demoted, state.demotion_reason
        assert stats.native_runs == 3 and stats.native_demotions == 0
        for tensor, array in before.items():
            np.testing.assert_array_equal(buffers[tensor], array)

    def test_strided_output_is_written_back(self):
        func = lower(small_conv_hwc())
        kernel = compile_native(func)
        buffers = alloc_buffers(func, np.random.default_rng(6))
        expected = run(func, {t: a.copy() for t, a in buffers.items()})
        arrays = [np.array(buffers[p], copy=True) for p in func.params]
        arrays[-1] = np.asfortranarray(arrays[-1])
        assert not arrays[-1].flags["C_CONTIGUOUS"]
        got = kernel.run(arrays)
        assert got is arrays[-1]
        np.testing.assert_array_equal(got, expected)

    def test_promoted_plan_missing_a_buffer_raises_key_error(self):
        plan = _proved_plan()
        run_tiered(plan, _fresh_buffers(plan), stats=EngineStats(), promote_after=1)
        assert tier_state(plan).tier == "native"
        buffers = _fresh_buffers(plan)
        del buffers[plan.func.inputs[0]]
        with pytest.raises(KeyError, match="missing buffer for parameter 'data'"):
            run_tiered(plan, buffers, promote_after=1)

    def test_rejects_wrong_shape(self):
        func = lower(small_conv_hwc())
        kernel = compile_native(func)
        buffers = alloc_buffers(func, np.random.default_rng(0))
        arrays = [np.array(buffers[p], copy=True) for p in func.params]
        arrays[0] = arrays[0][:-1]
        with pytest.raises(ValueError, match="shape"):
            kernel.run(arrays)

    def test_rejects_wrong_dtype(self):
        func = lower(small_conv_hwc())
        kernel = compile_native(func)
        buffers = alloc_buffers(func, np.random.default_rng(0))
        arrays = [np.array(buffers[p], copy=True) for p in func.params]
        arrays[0] = arrays[0].astype(np.int32)
        with pytest.raises(ValueError, match="dtype"):
            kernel.run(arrays)

    def test_rejects_wrong_arity(self):
        func = lower(small_conv_hwc())
        kernel = compile_native(func)
        with pytest.raises(ValueError, match="buffers"):
            kernel.run([])
