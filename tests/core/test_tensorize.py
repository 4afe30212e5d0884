"""Integration tests: the full UNIT pipeline on real workloads, checked numerically.

These are the headline correctness tests of the reproduction: for each
platform's instruction, a realistic (small-shape) operator is inspected,
reorganized, tuned, lowered, rewritten with the intrinsic, executed through the
instruction's hardware model, and compared against a numpy reference.
"""

import numpy as np
import pytest

from repro.core import tensorize
from repro.rewriter import CpuTuningConfig, GpuTuningConfig, TensorizeError
from repro.tir import Executor, IntrinsicCall, alloc_buffers, collect
from repro.workloads import (
    Conv2DParams,
    conv2d_hwc,
    conv2d_nchwc,
    conv3d_from_conv2d,
    conv3d_ncdhwc,
    dense_int8,
    DenseParams,
    matmul_fp16,
    matmul_int8,
)
from tests.conftest import conv2d_hwc_reference, matmul_reference


def _run_and_count_calls(result, rng):
    # Execute through the vectorized engine — the default validation oracle.
    # tests/tir/test_engine.py asserts the engine is bit-identical to the
    # scalar interpreter on these same workload shapes.
    buffers = alloc_buffers(result.func, rng)
    out = Executor(tier="vectorized").run(result.func, buffers)
    calls = collect(result.func.body, lambda s: isinstance(s, IntrinsicCall))
    return out, buffers, calls


class TestVnniIntegration:
    def test_conv_hwc_figure5_walkthrough(self, rng):
        params = Conv2DParams(in_channels=8, in_height=9, in_width=9, out_channels=32, kernel=3)
        conv = conv2d_hwc(params)
        result = tensorize(conv, "x86.avx512.vpdpbusd", config=CpuTuningConfig())
        out, buffers, calls = _run_and_count_calls(result, rng)
        assert len(calls) == 1
        data, weight = (buffers[t] for t in result.func.inputs)
        assert np.array_equal(out, conv2d_hwc_reference(data, weight))

    def test_blocked_nchwc_conv(self, rng):
        from tests.conftest import conv2d_nchwc_reference

        params = Conv2DParams(in_channels=8, in_height=8, in_width=8, out_channels=16, kernel=3)
        conv = conv2d_nchwc(params, lanes=16, reduction=4)
        result = tensorize(conv, "x86.avx512.vpdpbusd")
        out, buffers, _ = _run_and_count_calls(result, rng)
        by_name = {t.name: buffers[t] for t in result.func.inputs}
        ref = conv2d_nchwc_reference(by_name["data"], by_name["weight"])
        assert np.array_equal(out, ref)

    def test_dense_layer(self, rng):
        dense = dense_int8(DenseParams(batch=2, in_features=64, out_features=32))
        result = tensorize(dense, "x86.avx512.vpdpbusd")
        out, buffers, _ = _run_and_count_calls(result, rng)
        by_name = {t.name: buffers[t] for t in result.func.inputs}
        ref = matmul_reference(by_name["data"], by_name["weight"], transpose_b=True)
        assert np.array_equal(out, ref)

    def test_conv3d_extensibility(self, rng):
        """Section VI-C: a brand-new operator needs no changes to UNIT."""
        params = Conv2DParams(in_channels=8, in_height=6, in_width=6, out_channels=16, kernel=3)
        conv3d = conv3d_ncdhwc(conv3d_from_conv2d(params, depth=5))
        result = tensorize(conv3d, "x86.avx512.vpdpbusd")
        out, buffers, _ = _run_and_count_calls(result, rng)
        by_name = {t.name: buffers[t] for t in result.func.inputs}
        data = by_name["data"].astype(np.int64)
        weight = by_name["weight"].astype(np.int64)
        # direct 3-D reference
        c_outer, d, h, w, ci = data.shape
        k_outer, _, kk, _, _, ki, _ = weight.shape
        od, oh, ow = d - kk + 1, h - kk + 1, w - kk + 1
        ref = np.zeros((k_outer, od, oh, ow, ki), dtype=np.int64)
        for ko in range(k_outer):
            for z in range(od):
                for y in range(oh):
                    for x in range(ow):
                        patch = data[:, z : z + kk, y : y + kk, x : x + kk, :]
                        ref[ko, z, y, x, :] = np.einsum(
                            "cdhwi,cdhwki->k", patch, weight[ko]
                        )
        assert np.array_equal(out, ref.astype(np.int32))

    def test_int16_extension_instruction(self, rng):
        """The vpdpwssd (int16) extension maps onto an int16 matmul."""
        from repro.dsl import cast, compute, placeholder, reduce_axis, sum_reduce

        a = placeholder((4, 32), "int16", "A")
        b = placeholder((16, 32), "int16", "B")
        rk = reduce_axis(0, 32, "rk")
        mm = compute(
            (4, 16),
            lambda i, j: sum_reduce(cast("int32", a[i, rk]) * cast("int32", b[j, rk]), rk),
            name="mm_i16",
        )
        result = tensorize(mm, "x86.avx512.vpdpwssd")
        out, buffers, _ = _run_and_count_calls(result, rng)
        by_name = {t.name: buffers[t] for t in result.func.inputs}
        assert np.array_equal(out, matmul_reference(by_name["A"], by_name["B"], transpose_b=True))


class TestArmDotIntegration:
    def test_matmul_sdot(self, rng):
        from repro.dsl import cast, compute, placeholder, reduce_axis, sum_reduce

        a = placeholder((4, 16), "int8", "A")
        b = placeholder((8, 16), "int8", "B")
        rk = reduce_axis(0, 16, "rk")
        mm = compute(
            (4, 8),
            lambda i, j: sum_reduce(cast("int32", a[i, rk]) * cast("int32", b[j, rk]), rk),
            name="mm_s8",
        )
        result = tensorize(mm, "arm.neon.sdot")
        out, buffers, _ = _run_and_count_calls(result, rng)
        by_name = {t.name: buffers[t] for t in result.func.inputs}
        assert np.array_equal(out, matmul_reference(by_name["A"], by_name["B"], transpose_b=True))

    def test_blocked_conv_udot(self, rng):
        from tests.conftest import conv2d_nchwc_reference

        params = Conv2DParams(in_channels=8, in_height=7, in_width=7, out_channels=8, kernel=3)
        conv = conv2d_nchwc(params, lanes=4, reduction=4, in_dtype="uint8", weight_dtype="uint8")
        result = tensorize(conv, "arm.neon.udot")
        out, buffers, _ = _run_and_count_calls(result, rng)
        by_name = {t.name: buffers[t] for t in result.func.inputs}
        assert np.array_equal(out, conv2d_nchwc_reference(by_name["data"], by_name["weight"]))


class TestTensorCoreIntegration:
    def test_matmul_wmma(self, rng):
        mm = matmul_fp16(48, 32, 32)
        result = tensorize(mm, target="cuda", config=GpuTuningConfig(outer_product_p=1))
        out, buffers, _ = _run_and_count_calls(result, rng)
        a, b = (buffers[t] for t in result.func.inputs)
        np.testing.assert_allclose(
            out, a.astype(np.float32) @ b.astype(np.float32), rtol=1e-2, atol=1e-2
        )

    def test_gemm_formulated_conv(self, rng):
        params = Conv2DParams(in_channels=16, in_height=6, in_width=6, out_channels=32, kernel=1)
        gemm = tensorize(
            __import__("repro.workloads", fromlist=["conv2d_gemm"]).conv2d_gemm(params),
            "nvvm.wmma.m16n16k16.mma.row.row.f32.f32",
        )
        out, buffers, _ = _run_and_count_calls(gemm, rng)
        a, b = (buffers[t] for t in gemm.func.inputs)
        np.testing.assert_allclose(
            out, a.astype(np.float32) @ b.astype(np.float32), rtol=1e-2, atol=1e-2
        )


class TestFailureModes:
    def test_target_selection(self):
        mm = matmul_int8(4, 16, 8)
        result = tensorize(mm, target="x86")
        assert result.intrinsic.name == "x86.avx512.vpdpbusd"

    def test_fp32_op_has_no_tensorized_instruction_on_cuda(self):
        from repro.workloads import matmul_fp32

        with pytest.raises(TensorizeError):
            tensorize(matmul_fp32(32, 32, 32), target="cuda")

    def test_missing_intrinsic_and_target(self):
        mm = matmul_int8(4, 16, 8)
        with pytest.raises(ValueError):
            tensorize(mm)

    def test_bad_mapping_index(self):
        mm = matmul_int8(4, 16, 8)
        with pytest.raises(IndexError):
            tensorize(mm, "x86.avx512.vpdpbusd", mapping_index=99)
