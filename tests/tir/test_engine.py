"""Vectorized-engine correctness: bit-identical to the scalar interpreter.

The engine (``repro.tir.engine``) is the default validation oracle of the
repository; these tests pin its one contract — *exactly* the scalar
interpreter's results, on every statement/expression class it vectorizes and
on every workload family of the paper (dense, conv2d, conv3d, the Table I
layers), including the fallback path for constructs it cannot prove affine.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tensorize, validate_tensorize
from repro.dsl import (
    Select,
    cast,
    compute,
    max_reduce,
    min_reduce,
    placeholder,
    reduce_axis,
    sum_reduce,
)
from repro.dsl.expr import Cast, Compare, Const, FloorDiv, Max, Min, Mod, Var
from repro.dsl.tensor import Tensor
from repro.rewriter import CpuTuningConfig, GpuTuningConfig
from repro.schedule import create_schedule
from repro.tir import (
    Allocate,
    AttrStmt,
    Executor,
    For,
    IfThenElse,
    Interpreter,
    PrimFunc,
    Store,
    alloc_buffers,
    lower,
    run,
    seq,
)
from repro.workloads import (
    Conv2DParams,
    DenseParams,
    conv2d_hwc,
    conv2d_nchwc,
    conv3d_from_conv2d,
    conv3d_ncdhwc,
    dense_int8,
    matmul_fp16,
)
from repro.workloads.table1 import TABLE1_LAYERS
from tests.conftest import scaled_table1, small_conv_hwc, small_matmul_fp16, small_matmul_int8


def assert_engine_matches_interpreter(func, rng=None, strict=True):
    """Run ``func`` through both executors and require bit-identical output."""
    buffers = alloc_buffers(func, rng or np.random.default_rng(0))
    ref = run(func, {t: a.copy() for t, a in buffers.items()})
    engine = Executor(tier="vectorized", strict=strict)
    got = engine.run(func, {t: a.copy() for t, a in buffers.items()})
    assert got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)
    return engine.stats


class TestPlainNests:
    def test_conv_hwc(self, rng):
        stats = assert_engine_matches_interpreter(lower(small_conv_hwc()), rng)
        assert stats.fallback_nests == 0
        assert stats.vector_stores > 0

    def test_matmul_int8(self, rng):
        assert_engine_matches_interpreter(lower(small_matmul_int8(5, 7, 9)), rng)

    def test_matmul_fp16_float_fold_order(self, rng):
        """Float sums are order-sensitive; the engine must mirror the scalar
        left-fold bit for bit, not use pairwise summation."""
        assert_engine_matches_interpreter(lower(small_matmul_fp16(8, 8, 24)), rng)

    def test_max_reduction(self, rng):
        a = placeholder((4, 6), "int32", "a")
        j = reduce_axis(0, 6, "j")
        out = compute((4,), lambda i: sum_reduce(a[i, j], j), name="rowsum")
        assert_engine_matches_interpreter(lower(out), rng)

        from repro.dsl import max_reduce

        out2 = compute((4,), lambda i: max_reduce(a[i, j], j), name="rowmax")
        assert_engine_matches_interpreter(lower(out2), rng)

    def test_select(self, rng):
        a = placeholder((8,), "int32", "a")
        out = compute((8,), lambda i: Select(a[i] > 0, a[i], 0 - a[i]), name="abs")
        assert_engine_matches_interpreter(lower(out), rng)

    def test_elementwise_float(self, rng):
        a = placeholder((8,), "float32", "a")
        out = compute((8,), lambda i: a[i] * 2.0 + 1.0, name="axpb")
        assert_engine_matches_interpreter(lower(out), rng)


def _elementwise_func(value_builder, n=6, out_dtype="int32"):
    """``out[i] = value(a, b, i)`` as hand-built tensor IR (no simplifier in
    the way, so constant subtrees reach the engine unfolded)."""
    a = placeholder((n,), "int32", "a")
    b = placeholder((n,), "int32", "b")
    out_t = Tensor((n,), out_dtype, "out")
    i = Var("i")
    body = For(i, n, Store(out_t, [i], value_builder(a, b, i)))
    return PrimFunc("elementwise", [a, b, out_t], body, op=None)


class TestExpressionKinds:
    """Every expression kind of the language through both engine evaluators:
    the static one (subtrees that read no buffer — scalar and grid-shaped)
    and the compiled closures (subtrees that do)."""

    @pytest.mark.parametrize(
        "builder",
        [
            lambda a, b, i: Max(Min(a[i], b[i]), Const(3)),
            lambda a, b, i: a[i] + Min(Const(2), Const(5)) * Max(Const(2), Const(5)),
            lambda a, b, i: a[i] + Max(Min(i, Const(3)), Const(1)),
            lambda a, b, i: i,
            lambda a, b, i: a[i] + Cast("int8", i),
            lambda a, b, i: a[i] + Cast("int8", Const(7)),
            lambda a, b, i: a[i] + Select(Compare("<", i, Const(3)), Const(10), Const(20)),
            lambda a, b, i: a[i] + Select(Const(True), Const(10), Const(20)),
            lambda a, b, i: Cast("int64", a[0]) + b[i],
            lambda a, b, i: Select(Compare(">", a[0], Const(0)), a[i], b[i]),
            lambda a, b, i: a[Mod(b[0], Const(6))] + b[i],
            lambda a, b, i: FloorDiv(a[i], Const(3)) - Mod(b[i], Const(5)),
        ],
        ids=[
            "min-max-loads",
            "min-max-static-scalars",
            "min-max-static-grid",
            "bare-var",
            "cast-static-grid",
            "cast-static-scalar",
            "select-static-grid",
            "select-static-scalar",
            "cast-scalar-load",
            "select-scalar-condition",
            "indirect-scalar-load",
            "floordiv-mod-loads",
        ],
    )
    def test_matches_interpreter(self, rng, builder):
        stats = assert_engine_matches_interpreter(_elementwise_func(builder), rng)
        assert stats.fallback_nests == 0

    def test_statically_dead_nest_touches_nothing(self, rng):
        func = _elementwise_func(lambda a, b, i: a[i])
        store = func.body.body
        dead = IfThenElse(Compare("<", Const(1), Const(0)), store, likely=True)
        func = PrimFunc("dead", func.params, For(func.body.var, 6, dead), op=None)
        stats = assert_engine_matches_interpreter(func, rng)
        assert stats.vector_stores == 0 and stats.fallback_nests == 0

    def test_statically_true_guard_needs_no_mask(self, rng):
        func = _elementwise_func(lambda a, b, i: a[i] - b[i])
        live = IfThenElse(Compare("<", Const(0), Const(1)), func.body.body, likely=True)
        func = PrimFunc("live", func.params, For(func.body.var, 6, live), op=None)
        stats = assert_engine_matches_interpreter(func, rng)
        assert stats.vector_stores == 1

    def test_guarded_indirect_gather_is_clamped(self, rng):
        """Masked-out grid points of a data-dependent gather may carry any
        address; the clamp keeps them in range and the mask discards them."""
        func = _elementwise_func(lambda a, b, i: a[Mod(b[i] * (i + 1), Const(6))])
        guarded = IfThenElse(Compare("<", func.body.var, Const(4)), func.body.body, likely=True)
        func = PrimFunc("gather", func.params, For(func.body.var, 6, guarded), op=None)
        stats = assert_engine_matches_interpreter(func, rng)
        assert stats.fallback_nests == 0

    def test_attribute_scopes_are_transparent(self, rng):
        func = _elementwise_func(lambda a, b, i: a[i] * b[i])
        loop = func.body
        body = AttrStmt("outer", 1, For(loop.var, 6, AttrStmt("inner", 2, loop.body)))
        func = PrimFunc("scoped", func.params, body, op=None)
        stats = assert_engine_matches_interpreter(func, rng)
        assert stats.vector_nests == 1

    @pytest.mark.parametrize("dtype", ["int32", "float32"])
    @pytest.mark.parametrize("reduce_", [max_reduce, min_reduce], ids=["max", "min"])
    def test_guarded_order_free_reduction(self, rng, reduce_, dtype):
        """A residue guard on the reduction axis folds the combiner's identity
        for guarded-out iterations."""
        a = placeholder((4, 6), dtype, "a")
        j = reduce_axis(0, 6, "j")
        out = compute((4,), lambda i: reduce_(a[i, j], j), name="rowfold")
        sch = create_schedule(out)
        st_ = sch.stage
        st_.split(st_[j], 4)  # 6 % 4 != 0 -> guarded reduction iterations
        stats = assert_engine_matches_interpreter(lower(sch), rng)
        assert stats.fallback_nests == 0


def test_affine_in_sequential_variables():
    """The grid-form precondition: a sequential variable may be scaled by, or
    cast around, terms free of sequential variables — never multiplied by
    another sequential term or put under a div/mod."""
    from repro.tir.engine import _affine_in

    r, s, f = Var("r"), Var("s"), Var("f")
    seq_vars = {r, s}
    assert _affine_in(FloorDiv(f, Const(3)) * 8 + r * 4 + s, seq_vars)
    assert _affine_in((f % 3) * Cast("int32", r), seq_vars)
    assert _affine_in(Cast("int64", r * 2) - s, seq_vars)
    assert not _affine_in(r * s, seq_vars)
    assert not _affine_in(FloorDiv(r, Const(2)), seq_vars)
    assert not _affine_in(Cast("int32", Mod(s, Const(2))) + f, seq_vars)


class TestGuardsAndSchedules:
    @pytest.mark.parametrize("factor", [1, 2, 3, 5, 16])
    def test_imperfect_splits_guarded(self, rng, factor):
        """Residue (likely) guards become masks; clamped gathers and masked
        scatters must reproduce the guarded scalar loop exactly."""
        conv = small_conv_hwc()
        sch = create_schedule(conv)
        st_ = sch.stage
        st_.split(st_[conv.op.axes[2]], factor)
        stats = assert_engine_matches_interpreter(lower(sch), rng)
        assert stats.fallback_nests == 0

    def test_guard_on_spatial_axis(self, rng):
        conv = small_conv_hwc()
        sch = create_schedule(conv)
        st_ = sch.stage
        st_.split(st_[conv.op.axes[0]], 4)  # 6 % 4 != 0 -> residue guard
        assert_engine_matches_interpreter(lower(sch), rng)


class TestFallback:
    def test_if_then_else_with_else_falls_back(self, rng):
        """An else-branch conditional is not a residue guard: the engine must
        fall back to the interpreter and still be exact."""
        from repro.dsl.expr import Compare
        from repro.tir import IfThenElse

        a = placeholder((6,), "int32", "a")
        out_t = Tensor((6,), "int32", "out")
        i = Var("i")
        body = For(
            i,
            6,
            IfThenElse(
                Compare("<", i, Const(3)),
                Store(out_t, [i], a[i] * 2),
                Store(out_t, [i], a[i] - 1),
            ),
        )
        func = PrimFunc("branchy", [a, out_t], body, op=None)
        buffers = alloc_buffers(func, rng)
        ref = run(func, {t: b.copy() for t, b in buffers.items()})
        engine = Executor(tier="vectorized")
        got = engine.run(func, {t: b.copy() for t, b in buffers.items()})
        np.testing.assert_array_equal(got, ref)
        assert engine.stats.fallback_nests == 1
        assert engine.stats.fallback_reasons

    def test_allocate_scratch_buffer(self, rng):
        """Allocate introduces a scratch buffer; both executors must see the
        same zero-initialised storage and the same final output."""
        a = placeholder((8,), "int32", "a")
        out_t = Tensor((8,), "int32", "out")
        scratch = Tensor((8,), "int32", "scratch")
        i = Var("i")
        j = Var("j")
        body = Allocate(
            scratch,
            seq(
                For(i, 8, Store(scratch, [i], a[i] * 3)),
                For(j, 8, Store(out_t, [j], scratch[j] + 1)),
            ),
        )
        func = PrimFunc("scratchy", [a, out_t], body, op=None)
        buffers = alloc_buffers(func, rng)
        ref = run(func, {t: b.copy() for t, b in buffers.items()})
        got = Executor(tier="vectorized").run(func, {t: b.copy() for t, b in buffers.items()})
        np.testing.assert_array_equal(got, ref)

    def test_strict_mode_raises(self):
        from repro.dsl.expr import Compare
        from repro.tir import IfThenElse, Unvectorizable

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
        func = PrimFunc("strictly", [a, out_t], body, op=None)
        buffers = alloc_buffers(func, np.random.default_rng(0))
        with pytest.raises(Unvectorizable):
            Executor(tier="vectorized", strict=True).run(func, buffers)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            Executor(tier="quantum")


class TestTensorizedPrograms:
    """Engine vs interpreter on programs containing IntrinsicCall."""

    def test_vnni_conv_nchwc(self, rng):
        params = Conv2DParams(
            in_channels=8, in_height=8, in_width=8, out_channels=16, kernel=3
        )
        result = tensorize(conv2d_nchwc(params), "x86.avx512.vpdpbusd")
        stats = assert_engine_matches_interpreter(result.func, rng)
        assert stats.intrinsic_points > 0

    def test_vnni_conv_tuned_config(self, rng):
        params = Conv2DParams(
            in_channels=8, in_height=8, in_width=8, out_channels=16, kernel=3
        )
        result = tensorize(
            conv2d_nchwc(params),
            "x86.avx512.vpdpbusd",
            config=CpuTuningConfig(parallel_extent=100, unroll_limit=4),
        )
        assert_engine_matches_interpreter(result.func, rng)

    def test_sdot_matmul(self, rng):
        from repro.dsl import cast as dsl_cast

        a = placeholder((4, 16), "int8", "A")
        b = placeholder((8, 16), "int8", "B")
        rk = reduce_axis(0, 16, "rk")
        mm = compute(
            (4, 8),
            lambda i, j: sum_reduce(
                dsl_cast("int32", a[i, rk]) * dsl_cast("int32", b[j, rk]), rk
            ),
            name="mm_s8",
        )
        result = tensorize(mm, "arm.neon.sdot")
        assert_engine_matches_interpreter(result.func, rng)

    def test_wmma_matmul(self, rng):
        result = tensorize(
            matmul_fp16(32, 32, 32),
            target="cuda",
            config=GpuTuningConfig(outer_product_p=1),
        )
        assert_engine_matches_interpreter(result.func, rng)

    @pytest.mark.parametrize(
        "intrinsic, dtype, acc",
        [
            ("x86.avx512.fma.fp32", "float32", "float32"),
            ("x86.avx512.mac.int8.widened", "int8", "int32"),
            ("arm.neon.mla.int8.widened", "int8", "int32"),
        ],
    )
    def test_elementwise_fma_instructions_run_round_by_round(self, rng, intrinsic, dtype, acc):
        """The SIMD FMA / MLA descriptions have no reduction of their own: the
        program's reduction loop is the sequential rounds."""
        from repro.dsl import cast as dsl_cast

        a = placeholder((4, 8), dtype, "A")
        b = placeholder((8, 32), dtype, "B")
        rk = reduce_axis(0, 8, "rk")
        mm = compute(
            (4, 32),
            lambda i, j: sum_reduce(dsl_cast(acc, a[i, rk]) * dsl_cast(acc, b[rk, j]), rk),
            name="mm_fma",
        )
        stats = assert_engine_matches_interpreter(tensorize(mm, intrinsic).func, rng)
        assert stats.intrinsic_rounds == 8 and stats.intrinsic_round_batches == 0

    def test_guard_over_reduction_rounds_masks_each_round(self, rng):
        """A ragged split of the *reduction* loop puts a sequential variable in
        the guard: the mask differs per round, so even a grid-form instruction
        runs round by round and the guarded-out rounds are dropped."""
        from repro.dsl import cast as dsl_cast
        from repro.inspector import inspect_applicability
        from repro.isa.registry import get_intrinsic
        from repro.rewriter import apply_cpu_schedule, reorganize_loops, replace_tensorize

        a = placeholder((4, 40), "int8", "A")
        b = placeholder((8, 40), "int8", "B")
        rk = reduce_axis(0, 40, "rk")
        mm = compute(
            (4, 8),
            lambda i, j: sum_reduce(
                dsl_cast("int32", a[i, rk]) * dsl_cast("int32", b[j, rk]), rk
            ),
            name="mm_ragged_k",
        )
        inspection = inspect_applicability(mm.op, get_intrinsic("arm.neon.sdot"))
        spec = reorganize_loops(inspection, mapping=inspection.mappings[0])
        apply_cpu_schedule(spec, CpuTuningConfig())
        stage = spec.schedule.stage
        (rounds,) = [loop for loop in stage.leaf_vars if loop.name == "rk.o"]
        stage.split(rounds, 4)  # 10 % 4 != 0 -> 12 iterations, 2 guarded out
        func = replace_tensorize(lower(spec.schedule), spec, verify=True)
        stats = assert_engine_matches_interpreter(func, rng)
        assert stats.intrinsic_rounds == 10 and stats.intrinsic_round_batches == 0

    @pytest.mark.parametrize("never", ["constant", "per-point"])
    def test_intrinsic_nest_whose_guard_never_holds_is_dead(self, rng, never):
        """A guard that is false everywhere — folded statically, or only
        once the mask over the grid is built — leaves the init store's zeros."""
        from repro.tir import IntrinsicCall, StmtMutator, collect

        func = tensorize(small_matmul_int8(4, 16, 16), "x86.avx512.vpdpbusd").func
        rows = collect(func.body.stmts[-1], lambda s: isinstance(s, For) and s.var.name == "i")[0]
        guard = (
            Compare("<", Const(1), Const(0))
            if never == "constant"
            else Compare("<", rows.var, Const(0))
        )

        class Guard(StmtMutator):
            def mutate(self, stmt):
                if isinstance(stmt, IntrinsicCall):
                    return IfThenElse(guard, stmt, likely=True)
                return super().mutate(stmt)

        dead = PrimFunc("dead_call", func.params, Guard().mutate(func.body), op=None)
        stats = assert_engine_matches_interpreter(dead, rng)
        assert stats.intrinsic_rounds == 0 and stats.fallback_nests == 0

    def test_dense_int8(self, rng):
        result = tensorize(
            dense_int8(DenseParams(batch=2, in_features=64, out_features=32)),
            "x86.avx512.vpdpbusd",
        )
        assert_engine_matches_interpreter(result.func, rng)

    def test_conv3d(self, rng):
        params = Conv2DParams(
            in_channels=8, in_height=5, in_width=5, out_channels=16, kernel=3
        )
        result = tensorize(
            conv3d_ncdhwc(conv3d_from_conv2d(params, depth=3)), "x86.avx512.vpdpbusd"
        )
        assert_engine_matches_interpreter(result.func, rng)


class TestTable1Workloads:
    """Property-style equivalence across every Table I layer (scaled down so
    the scalar reference stays fast; the engine runs the full-size layers in
    the benchmark suite)."""

    @pytest.mark.parametrize(
        "index", range(1, len(TABLE1_LAYERS) + 1), ids=lambda i: f"layer{i}"
    )
    def test_layer_plain_lowering(self, index):
        params = scaled_table1(TABLE1_LAYERS[index - 1])
        func = lower(conv2d_nchwc(params))
        rng = np.random.default_rng(index)
        assert_engine_matches_interpreter(func, rng)

    @pytest.mark.parametrize("index", [1, 4, 15], ids=lambda i: f"layer{i}")
    def test_layer_tensorized(self, index):
        """Strided / large-kernel / pointwise representatives, tensorized."""
        params = scaled_table1(TABLE1_LAYERS[index - 1])
        result = tensorize(conv2d_nchwc(params), "x86.avx512.vpdpbusd")
        assert_engine_matches_interpreter(result.func, np.random.default_rng(index))

    def test_hwc_figure5_layer(self, rng):
        params = Conv2DParams(
            in_channels=8, in_height=8, in_width=8, out_channels=16, kernel=3
        )
        result = tensorize(
            conv2d_hwc(params), "x86.avx512.vpdpbusd", config=CpuTuningConfig()
        )
        assert_engine_matches_interpreter(result.func, rng)

    def test_validate_tensorize_oracle(self):
        params = Conv2DParams(
            in_channels=8, in_height=8, in_width=8, out_channels=16, kernel=3
        )
        result = tensorize(conv2d_nchwc(params), "x86.avx512.vpdpbusd")
        validate_tensorize(result)  # must not raise


@given(st.integers(1, 5), st.integers(1, 10), st.integers(1, 12))
@settings(max_examples=20, deadline=None)
def test_property_random_matmul_shapes(m, n, k):
    """Engine equals interpreter for arbitrary small matmul shapes."""
    func = lower(small_matmul_int8(m, n, k))
    buffers = alloc_buffers(func, np.random.default_rng(m * 100 + n * 10 + k))
    ref = run(func, {t: a.copy() for t, a in buffers.items()})
    got = Executor(tier="vectorized", strict=True).run(
        func, {t: a.copy() for t, a in buffers.items()}
    )
    np.testing.assert_array_equal(got, ref)


class TestInterpreterReentrancy:
    def test_shared_interpreter_across_threads(self, rng):
        """One Interpreter instance must be safely shareable: execution state
        lives in a per-call frame, not on the instance."""
        func = lower(small_matmul_int8(4, 8, 8))
        interp = Interpreter(func)
        buffer_sets = [alloc_buffers(func, np.random.default_rng(s)) for s in range(8)]
        expected = [
            run(func, {t: a.copy() for t, a in bufs.items()}) for bufs in buffer_sets
        ]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(
                    lambda bufs: interp.run({t: a.copy() for t, a in bufs.items()}),
                    buffer_sets,
                )
            )
        for got, ref in zip(results, expected):
            np.testing.assert_array_equal(got, ref)

    def test_recursive_run_via_engine_fallback(self, rng):
        """The engine's interpreter fallback may fire while another run of the
        same Interpreter is in flight; frames keep them independent."""
        func = lower(small_conv_hwc(6, 6, 4, 8, 3))
        interp = Interpreter(func)
        bufs1 = alloc_buffers(func, np.random.default_rng(1))
        bufs2 = alloc_buffers(func, np.random.default_rng(2))
        out1 = interp.run(bufs1)
        out2 = interp.run(bufs2)
        assert not np.array_equal(out1, out2)
