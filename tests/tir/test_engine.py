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
from repro.dsl import Select, cast, compute, placeholder, reduce_axis, sum_reduce
from repro.dsl.expr import Broadcast, Const, Ramp, Shuffle, Var
from repro.dsl.tensor import Tensor
from repro.rewriter import CpuTuningConfig, GpuTuningConfig
from repro.schedule import create_schedule
from repro.tir import (
    Allocate,
    Executor,
    For,
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


class TestVectorExprs:
    """Ramp / Broadcast / Shuffle execute on whole lane groups."""

    def _vector_store_func(self, value_builder):
        a = placeholder((4, 8), "int32", "a")
        out_t = Tensor((4, 8), "int32", "out")
        i = Var("i")
        lane0 = Ramp(Const(0), 1, 8)
        body = For(i, 4, Store(out_t, [i, lane0], value_builder(a, i)))
        return PrimFunc("vectored", [a, out_t], body, op=None)

    @pytest.mark.parametrize(
        "builder",
        [
            lambda a, i: a[i, Ramp(Const(0), 1, 8)] * 2,
            lambda a, i: a[i, Ramp(Const(7), -1, 8)] + Broadcast(Const(5), 8),
            lambda a, i: Shuffle(
                [a[i, Ramp(Const(0), 1, 4)], a[i, Ramp(Const(4), 1, 4)]]
            ),
        ],
        ids=["ramp-gather", "reverse-ramp-broadcast", "shuffle-concat"],
    )
    def test_vector_store_matches_interpreter(self, rng, builder):
        func = self._vector_store_func(builder)
        buffers = alloc_buffers(func, rng)
        ref = run(func, {t: b.copy() for t, b in buffers.items()})
        engine = Executor(tier="vectorized", strict=True)
        got = engine.run(func, {t: b.copy() for t, b in buffers.items()})
        np.testing.assert_array_equal(got, ref)
        assert engine.stats.fallback_nests == 0


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
