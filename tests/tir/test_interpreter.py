"""Interpreter correctness: tensor IR executes exactly like numpy references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl import Select, cast, compute, placeholder, reduce_axis, sum_reduce, max_reduce
from repro.schedule import create_schedule
from repro.tir import Interpreter, alloc_buffers, lower, run
from tests.conftest import conv2d_hwc_reference, matmul_reference, small_conv_hwc, small_matmul_int8


class TestBasicExecution:
    def test_elementwise(self, rng):
        a = placeholder((8,), "float32", "a")
        out = compute((8,), lambda i: a[i] * 2.0 + 1.0, name="axpb")
        func = lower(out)
        buffers = alloc_buffers(func, rng)
        result = run(func, buffers)
        np.testing.assert_allclose(result, buffers[a] * 2.0 + 1.0, rtol=1e-6)

    def test_conv_hwc_matches_reference(self, rng):
        conv = small_conv_hwc()
        func = lower(conv)
        buffers = alloc_buffers(func, rng)
        result = run(func, buffers)
        data, weight = (buffers[t] for t in func.inputs)
        assert np.array_equal(result, conv2d_hwc_reference(data, weight))

    def test_matmul_matches_reference(self, rng):
        mm = small_matmul_int8(4, 16, 8)
        func = lower(mm)
        buffers = alloc_buffers(func, rng)
        result = run(func, buffers)
        a, b = (buffers[t] for t in func.inputs)
        assert np.array_equal(result, matmul_reference(a, b, transpose_b=True))

    def test_max_reduction(self, rng):
        a = placeholder((4, 6), "int32", "a")
        j = reduce_axis(0, 6, "j")
        out = compute((4,), lambda i: max_reduce(a[i, j], j), name="rowmax")
        func = lower(out)
        buffers = alloc_buffers(func, rng)
        result = run(func, buffers)
        assert np.array_equal(result, buffers[a].max(axis=1))

    def test_select(self, rng):
        a = placeholder((8,), "int32", "a")
        out = compute((8,), lambda i: Select(a[i] > 0, a[i], 0 - a[i]), name="abs")
        func = lower(out)
        buffers = alloc_buffers(func, rng)
        result = run(func, buffers)
        assert np.array_equal(result, np.abs(buffers[a]))

    def test_missing_buffer_raises(self):
        conv = small_conv_hwc()
        func = lower(conv)
        with pytest.raises(KeyError):
            Interpreter(func).run({})

    def test_wrong_shape_raises(self, rng):
        conv = small_conv_hwc()
        func = lower(conv)
        buffers = alloc_buffers(func, rng)
        bad = {t: np.zeros((1, 1)) if i == 0 else arr for i, (t, arr) in enumerate(buffers.items())}
        with pytest.raises(ValueError):
            Interpreter(func).run(bad)


class TestDtypeSemantics:
    def test_int8_cast_wraps(self):
        a = placeholder((1,), "int32", "a")
        out = compute((1,), lambda i: cast("int8", a[i]), name="narrow")
        func = lower(out)
        buffers = {func.inputs[0]: np.array([300], dtype=np.int32),
                   func.output: np.zeros((1,), dtype=np.int8)}
        result = run(func, buffers)
        assert result[0] == np.int32(300).astype(np.int8)

    def test_fp16_rounding_visible(self):
        a = placeholder((1,), "float32", "a")
        out = compute((1,), lambda i: cast("float16", a[i]), name="half")
        func = lower(out)
        buffers = {func.inputs[0]: np.array([1.0001], dtype=np.float32),
                   func.output: np.zeros((1,), dtype=np.float16)}
        result = run(func, buffers)
        assert result[0] == np.float16(1.0001)


class TestScheduledExecution:
    @pytest.mark.parametrize("factor", [1, 2, 3, 5, 16])
    def test_split_factors_preserve_conv(self, rng, factor):
        conv = small_conv_hwc()
        sch = create_schedule(conv)
        st = sch.stage
        st.split(st[conv.op.axes[2]], factor)
        func = lower(sch)
        buffers = alloc_buffers(func, rng)
        result = run(func, buffers)
        data, weight = (buffers[t] for t in func.inputs)
        assert np.array_equal(result, conv2d_hwc_reference(data, weight))


@given(st.integers(1, 5), st.integers(1, 10), st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_property_matmul_random_shapes(m, n, k):
    """Interpreted matmul equals numpy for arbitrary small shapes."""
    mm = small_matmul_int8(m, n, k)
    func = lower(mm)
    buffers = alloc_buffers(func, np.random.default_rng(m * 100 + n * 10 + k))
    result = run(func, buffers)
    a, b = (buffers[t] for t in func.inputs)
    assert np.array_equal(result, matmul_reference(a, b, transpose_b=True))


class TestEdgeCaseStatements:
    def test_if_then_else_guard_skips_stores(self, rng):
        from repro.dsl.expr import Compare, Const, Var
        from repro.dsl.tensor import Tensor
        from repro.tir import For, IfThenElse, PrimFunc, Store

        a = placeholder((6,), "int32", "a")
        out_t = Tensor((6,), "int32", "out")
        i = Var("i")
        body = For(
            i, 6, IfThenElse(Compare("<", i, Const(4)), Store(out_t, [i], a[i] + 1))
        )
        func = PrimFunc("guarded", [a, out_t], body, op=None)
        buffers = alloc_buffers(func, rng)
        result = run(func, buffers)
        assert np.array_equal(result[:4], buffers[a][:4] + 1)
        assert np.array_equal(result[4:], np.zeros(2, dtype=np.int32))

    def test_allocate_scratch_is_zero_initialised(self, rng):
        from repro.dsl.expr import Var
        from repro.dsl.tensor import Tensor
        from repro.tir import Allocate, For, PrimFunc, Store, seq

        a = placeholder((4,), "int32", "a")
        out_t = Tensor((4,), "int32", "out")
        scratch = Tensor((4,), "int32", "scratch")
        i, j = Var("i"), Var("j")
        # Only even scratch slots are written; odd slots must read as zero.
        body = Allocate(
            scratch,
            seq(
                For(i, 2, Store(scratch, [i * 2], a[i * 2])),
                For(j, 4, Store(out_t, [j], scratch[j] + 1)),
            ),
        )
        func = PrimFunc("alloc", [a, out_t], body, op=None)
        buffers = alloc_buffers(func, rng)
        result = run(func, buffers)
        expected = np.array(
            [buffers[a][0] + 1, 1, buffers[a][2] + 1, 1], dtype=np.int32
        )
        assert np.array_equal(result, expected)
