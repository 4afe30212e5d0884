"""Plan-cache correctness: structural sharing without semantic collisions.

The plan cache hands one compiled :class:`ExecutablePlan` to every
structurally identical function, so these tests pin the three properties that
make that safe: shared plans stay bit-identical to the scalar interpreter for
every caller, functions differing in shapes or dtypes never collide, and the
cache invalidates itself when the expression interning layer is cleared.
"""

import numpy as np
import pytest

from repro.core import tensorize
from repro.dsl import compute, placeholder, reduce_axis, sum_reduce
from repro.dsl.expr import clear_expr_caches, expr_cache_stats, reset_expr_cache_stats
from repro.rewriter import CpuTuningConfig
from repro.tir import (
    PlanCache,
    Unvectorizable,
    alloc_buffers,
    compile_plan,
    func_key,
    func_signature,
    func_structural_equal,
    func_structural_hash,
    lower,
    native_toolchain,
    plan_cache,
    run,
    tier_state,
)
from repro.workloads import Conv2DParams, conv2d_nchwc
from tests.conftest import small_conv_hwc, small_matmul_int8


def _matmul_func(m=4, n=8, k=8, dtype_a="uint8"):
    from repro.dsl import cast

    a = placeholder((m, k), dtype_a, "A")
    b = placeholder((n, k), "int8", "B")
    rk = reduce_axis(0, k, "rk")
    out = compute(
        (m, n),
        lambda i, j: sum_reduce(cast("int32", a[i, rk]) * cast("int32", b[j, rk]), rk),
        name="mm",
    )
    return lower(out)


class TestStructuralIdentity:
    def test_equal_functions_hash_and_compare_equal(self):
        f1, f2 = _matmul_func(), _matmul_func()
        assert f1.params[0] is not f2.params[0]  # genuinely different objects
        assert func_structural_hash(f1) == func_structural_hash(f2)
        assert func_structural_equal(f1, f2)

    def test_different_shape_distinguished(self):
        f1, f2 = _matmul_func(m=4), _matmul_func(m=5)
        assert func_signature(f1) != func_signature(f2)
        assert not func_structural_equal(f1, f2)

    def test_different_dtype_distinguished(self):
        f1, f2 = _matmul_func(dtype_a="uint8"), _matmul_func(dtype_a="int8")
        assert func_signature(f1) != func_signature(f2)
        assert not func_structural_equal(f1, f2)

    def test_different_extent_distinguished(self):
        f1, f2 = _matmul_func(k=8), _matmul_func(k=12)
        assert func_structural_hash(f1) != func_structural_hash(f2)

    def test_tensorized_twins_compare_equal(self):
        params = Conv2DParams(
            in_channels=8, in_height=8, in_width=8, out_channels=16, kernel=3
        )
        f1 = tensorize(conv2d_nchwc(params), "x86.avx512.vpdpbusd").func
        f2 = tensorize(conv2d_nchwc(params), "x86.avx512.vpdpbusd").func
        assert func_structural_hash(f1) == func_structural_hash(f2)
        assert func_structural_equal(f1, f2)

    def test_key_is_remembered_per_function(self):
        f1, f2 = _matmul_func(), _matmul_func()
        assert func_key(f1) is func_key(f1)
        assert func_key(f1) == func_key(f2) and func_key(f1) is not func_key(f2)
        assert hash(func_key(f1)) == func_structural_hash(f1)

    def test_rebound_loop_variables_keep_their_own_ordinals(self):
        """Sibling nests reuse the same loop variables: each binding gets a
        fresh ordinal, so ``a[i, j]`` and ``a[j, i]`` in the second nest stay
        different programs."""
        from repro.dsl.expr import Var
        from repro.dsl.tensor import Tensor
        from repro.tir import For, PrimFunc, SeqStmt, Store

        def func(transposed):
            a = placeholder((4, 4), "int32", "a")
            out = Tensor((4, 4), "int32", "out")
            i, j = Var("i"), Var("j")
            read = a[j, i] if transposed else a[i, j]
            body = SeqStmt(
                [
                    For(i, 4, For(j, 4, Store(out, [i, j], a[i, j]))),
                    For(i, 4, For(j, 4, Store(out, [i, j], out[i, j] + read))),
                ]
            )
            return PrimFunc("twice", [a, out], body, op=None)

        plain, transposed = func(False), func(True)
        assert func_structural_equal(plain, func(False))
        assert not func_structural_equal(plain, transposed)
        cache = PlanCache()
        assert cache.get_or_compile(plain) is not cache.get_or_compile(transposed)


def _zero_twin(zero):
    """``out[i] = select(a[i] > 0.5, zero, a[i])``: twins for ``0.0`` / ``-0.0``
    differ only in one constant's sign bit."""
    from repro.dsl import Const, Select

    a = placeholder((4,), "float32", "a")
    return lower(compute((4,), lambda i: Select(a[i] > 0.5, Const(zero, "float32"), a[i]), name="out"))


def _zero_twin_buffers(func):
    return {
        func.params[0]: np.array([0.75, 0.0, 0.9, 0.25], np.float32),
        func.params[1]: np.zeros(4, np.float32),
    }


def _interpreted_bytes(func):
    return run(func, _zero_twin_buffers(func)).tobytes()


class TestSignedZeroTwins:
    """Programs that differ only in a float constant's bits are different
    programs: ``0.0 == -0.0`` as numbers, not as constants of a program."""

    def test_twins_get_two_plans(self):
        f1, f2 = _zero_twin(0.0), _zero_twin(-0.0)
        assert not func_structural_equal(f1, f2)
        cache = PlanCache()
        assert cache.get_or_compile(f1) is not cache.get_or_compile(f2)
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        nan_twins = [_zero_twin(v) for v in (float("nan"), -float("nan"))]
        assert cache.get_or_compile(nan_twins[0]) is not cache.get_or_compile(nan_twins[1])

    def test_vectorized_bytes_match_the_interpreter_for_both(self):
        from repro.tir import Executor

        f1, f2 = _zero_twin(0.0), _zero_twin(-0.0)
        assert _interpreted_bytes(f1) != _interpreted_bytes(f2)
        executor = Executor(tier="vectorized")
        for func in (f1, f2):
            assert executor.run(func, _zero_twin_buffers(func)).tobytes() == _interpreted_bytes(func)

    def test_full_validation_runs_both_twins_exactly(self):
        """Full validation compares values, under which ``-0.0 == 0.0``: it
        cannot see a borrowed plan here, so the bytes are checked too."""
        from repro.tir import Executor

        f1, f2 = _zero_twin(0.0), _zero_twin(-0.0)
        executor = Executor(validation="full")
        for func in (f1, f2):
            assert executor.run(func, _zero_twin_buffers(func)).tobytes() == _interpreted_bytes(func)

    @pytest.mark.skipif(native_toolchain()[0] is None, reason="no native toolchain (C compiler)")
    def test_native_twin_does_not_run_the_other_kernel(self):
        from repro.tir import Executor

        f1, f2 = _zero_twin(0.0), _zero_twin(-0.0)
        executor = Executor(tier="native", promote_after=1)
        executor.run(f1, _zero_twin_buffers(f1))
        promoted = plan_cache().get_or_compile(f1)
        assert tier_state(promoted).tier == "native"
        for _ in range(2):  # the first run promotes f2's own plan, the second runs it
            assert executor.run(f2, _zero_twin_buffers(f2)).tobytes() == _interpreted_bytes(f2)
        assert plan_cache().get_or_compile(f2) is not promoted

    def test_spot_validation_checks_each_program_once(self, monkeypatch):
        from repro.tir import Executor, Interpreter

        checked = []
        real_run = Interpreter.run

        def spy(self, buffers):
            checked.append(self.func)
            return real_run(self, buffers)

        monkeypatch.setattr(Interpreter, "run", spy)
        f1, f2, f1_again = _zero_twin(0.0), _zero_twin(-0.0), _zero_twin(0.0)
        executor = Executor(tier="vectorized", validation="spot")
        for func in (f1, f2, f1, f1_again):
            executor.run(func, _zero_twin_buffers(func))
        assert checked == [f1, f2]


class TestPlanSharing:
    def test_structural_twins_share_one_plan_bit_identically(self, rng):
        """Two structurally equal functions with different buffer contents
        must share a plan and both reproduce the interpreter exactly."""
        cache = PlanCache()
        f1, f2 = _matmul_func(), _matmul_func()
        p1 = cache.get_or_compile(f1)
        p2 = cache.get_or_compile(f2)
        assert p1 is p2
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        for func, seed in ((f1, 1), (f2, 2)):
            buffers = alloc_buffers(func, np.random.default_rng(seed))
            ref = run(func, {t: a.copy() for t, a in buffers.items()})
            got = p1.run({t: a.copy() for t, a in buffers.items()}, func=func)
            np.testing.assert_array_equal(got, ref)

    def test_shape_and_dtype_variants_get_separate_plans(self):
        cache = PlanCache()
        plans = {
            cache.get_or_compile(f)
            for f in (
                _matmul_func(m=4),
                _matmul_func(m=5),
                _matmul_func(dtype_a="int8"),
            )
        }
        assert len(plans) == 3
        assert cache.stats.hits == 0

    def test_tensorized_twin_execution(self, rng):
        params = Conv2DParams(
            in_channels=8, in_height=8, in_width=8, out_channels=16, kernel=3
        )
        cache = PlanCache()
        r1 = tensorize(conv2d_nchwc(params), "x86.avx512.vpdpbusd")
        r2 = tensorize(conv2d_nchwc(params), "x86.avx512.vpdpbusd")
        plan = cache.get_or_compile(r1.func)
        assert cache.get_or_compile(r2.func) is plan
        buffers = alloc_buffers(r2.func, rng)
        ref = run(r2.func, {t: a.copy() for t, a in buffers.items()})
        got = plan.run({t: a.copy() for t, a in buffers.items()}, func=r2.func)
        np.testing.assert_array_equal(got, ref)

    def test_stats_and_telemetry_counters_agree(self):
        from repro.telemetry import metrics

        cache = PlanCache()
        f1, f2 = _matmul_func(), _matmul_func()
        with metrics.collecting() as registry:
            for func in (f1, f1, f2):  # one miss, then two hits
                cache.get_or_compile(func)
        counters = registry.counters()
        assert (cache.stats.misses, cache.stats.hits) == (1, 2)
        assert counters["tir.plan_cache.misses"] == cache.stats.misses
        assert counters["tir.plan_cache.hits"] == cache.stats.hits

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        f1, f2, f3 = _matmul_func(m=2), _matmul_func(m=3), _matmul_func(m=6)
        cache.get_or_compile(f1)
        cache.get_or_compile(f2)
        cache.get_or_compile(f3)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # f1 was least recently used: compiling it again is a miss.
        cache.get_or_compile(f1)
        assert cache.stats.misses == 4

    def test_global_cache_serves_engine_runs(self, rng):
        from repro.tir import Executor

        func = _matmul_func(m=3, n=6, k=4)
        twin = _matmul_func(m=3, n=6, k=4)
        cache = plan_cache()
        hits0 = cache.stats.hits
        executor = Executor(tier="vectorized")
        b1 = alloc_buffers(func, rng)
        ref = run(func, {t: a.copy() for t, a in b1.items()})
        np.testing.assert_array_equal(
            executor.run(func, {t: a.copy() for t, a in b1.items()}), ref
        )
        executor.run(twin, alloc_buffers(twin, np.random.default_rng(9)))
        assert cache.stats.hits > hits0  # the twin rode the first compile


class TestInvalidation:
    def test_expr_cache_clear_invalidates_plans(self):
        cache = PlanCache()
        func = _matmul_func()
        plan = cache.get_or_compile(func)
        clear_expr_caches()
        try:
            again = cache.get_or_compile(func)
            assert again is not plan  # recompiled after the epoch bump
            assert cache.stats.invalidations == 1
        finally:
            reset_expr_cache_stats()

    def test_reassigned_body_gets_a_new_hash_report_and_plan(self, rng):
        """Everything remembered on a function is keyed on ``func.body``
        identity: after a reassignment the hash, the analysis report and the
        cached plan are the new body's, never the old one's."""
        from repro.analysis import analyze, iter_nests

        cache = PlanCache()
        func = _matmul_func(4, 8, 8)
        old_hash, old_report, old_plan = (
            func_structural_hash(func),
            analyze(func),
            cache.get_or_compile(func),
        )
        assert analyze(func) is old_report and cache.get_or_compile(func) is old_plan

        wider = _matmul_func(4, 8, 16)  # same parameter shapes but for the reduction
        func.params, func.body = wider.params, wider.body
        assert func_structural_hash(func) != old_hash
        assert analyze(func) is not old_report
        assert [n.axes[-1][1] for n in iter_nests(func)][-1] == 16  # re-read, not remembered
        plan = cache.get_or_compile(func)
        assert plan is not old_plan
        buffers = alloc_buffers(func, rng)
        expected = run(func, {t: a.copy() for t, a in buffers.items()})
        np.testing.assert_array_equal(plan.run(buffers, func=func), expected)

    def test_mutator_built_function_is_analysed_fresh(self):
        """A ``StmtMutator`` result wrapped in a new ``PrimFunc`` shares no
        remembered fact with its source (the ``tests/analysis/test_mutations``
        construction): the defect the mutation injects is reported."""
        from repro.analysis import analyze
        from repro.tir import PrimFunc, StmtMutator, Store

        class BumpFirstStore(StmtMutator):
            done = False

            def mutate(self, stmt):
                if isinstance(stmt, Store) and not self.done:
                    self.done = True
                    return Store(stmt.tensor, [stmt.indices[0] + 1, *stmt.indices[1:]], stmt.value)
                return super().mutate(stmt)

        func = _matmul_func()
        good = analyze(func)
        assert good.ok()
        mutated = PrimFunc(func.name, func.params, BumpFirstStore().mutate(func.body), func.op)
        bad = analyze(mutated)
        assert bad is not good and not bad.ok()
        assert analyze(func) is good and good.ok()

    def test_clear_empties_cache(self):
        cache = PlanCache()
        cache.get_or_compile(_matmul_func())
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0


class TestPlanExecution:
    def test_plan_stats_count_fallbacks_at_compile_time(self):
        from repro.dsl.expr import Compare, Const, Var
        from repro.tir import For, IfThenElse, PrimFunc, Store
        from repro.dsl.tensor import Tensor

        a = placeholder((4,), "int32", "a")
        out_t = Tensor((4,), "int32", "out")
        i = Var("i")
        body = For(
            i,
            4,
            IfThenElse(
                Compare("<", i, Const(2)),
                Store(out_t, [i], a[i]),
                Store(out_t, [i], a[i] + 1),
            ),
        )
        func = PrimFunc("branchy", [a, out_t], body, op=None)
        plan = compile_plan(func)
        assert plan.fallback_nests == 1
        assert plan.stats.fallback_reasons
        buffers = alloc_buffers(func, np.random.default_rng(0))
        ref = run(func, {t: b.copy() for t, b in buffers.items()})
        got = plan.run({t: b.copy() for t, b in buffers.items()})
        np.testing.assert_array_equal(got, ref)

    def test_strict_compile_raises(self):
        from repro.dsl.expr import Compare, Const, Var
        from repro.tir import For, IfThenElse, PrimFunc, Store
        from repro.dsl.tensor import Tensor

        a = placeholder((4,), "int32", "a")
        out_t = Tensor((4,), "int32", "out")
        i = Var("i")
        body = For(
            i, 4, IfThenElse(Compare("<", i, Const(2)), Store(out_t, [i], a[i]),
                             Store(out_t, [i], a[i]))
        )
        func = PrimFunc("strictly", [a, out_t], body, op=None)
        with pytest.raises(Unvectorizable):
            compile_plan(func, strict=True)

    def test_repeated_runs_are_deterministic(self, rng):
        func = lower(small_conv_hwc())
        plan = compile_plan(func)
        buffers = alloc_buffers(func, rng)
        out1 = plan.run({t: a.copy() for t, a in buffers.items()})
        out2 = plan.run({t: a.copy() for t, a in buffers.items()})
        np.testing.assert_array_equal(out1, out2)

    def test_affine_analysis_routes_through_memoized_extract_linear(self):
        """Compiling a tensorized plan must exercise the extract_linear memo
        (the PR-2 counters were dead); recompiling the same function hits."""
        params = Conv2DParams(
            in_channels=8, in_height=8, in_width=8, out_channels=16, kernel=3
        )
        result = tensorize(conv2d_nchwc(params), "x86.avx512.vpdpbusd")
        reset_expr_cache_stats()
        try:
            compile_plan(result.func)
            stats = expr_cache_stats()
            assert stats.linear_misses + stats.linear_hits > 0
            assert stats.linear_hits > 0  # round-slicing re-checks hit the memo
            hits_after_first = stats.linear_hits
            compile_plan(result.func)
            assert expr_cache_stats().linear_hits > hits_after_first
        finally:
            reset_expr_cache_stats()

    def test_round_batching_on_reduction_rounds(self, rng):
        """A multi-round integer conv must execute through a stacked round
        batch, bit-identically to the scalar interpreter."""
        from repro.tir import EngineStats

        params = Conv2DParams(
            in_channels=16, in_height=8, in_width=8, out_channels=32, kernel=3
        )
        result = tensorize(
            conv2d_nchwc(params), "x86.avx512.vpdpbusd", config=CpuTuningConfig()
        )
        plan = compile_plan(result.func)
        assert plan.fallback_nests == 0
        buffers = alloc_buffers(result.func, rng)
        ref = run(result.func, {t: a.copy() for t, a in buffers.items()})
        stats = EngineStats()
        got = plan.run({t: a.copy() for t, a in buffers.items()}, stats=stats)
        np.testing.assert_array_equal(got, ref)
        assert stats.intrinsic_round_batches >= 1
        assert stats.intrinsic_rounds > stats.intrinsic_round_batches

    def test_plain_lowering_plan_matches_interpreter(self, rng):
        func = lower(small_matmul_int8(5, 7, 9))
        plan = compile_plan(func)
        buffers = alloc_buffers(func, rng)
        ref = run(func, {t: a.copy() for t, a in buffers.items()})
        got = plan.run({t: a.copy() for t, a in buffers.items()})
        np.testing.assert_array_equal(got, ref)
