"""Tests of the tensorized-instruction descriptions and their hardware models.

The key invariant: the hand-written numpy "hardware model" of every
instruction must agree exactly with interpreting the instruction's own
tensor-DSL description (Figure 4) — i.e. the description *is* the semantics.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import (
    TensorIntrinsic,
    get_intrinsic,
    intrinsics_for_target,
    list_intrinsics,
    register_intrinsic,
)

_TENSORIZED = [
    "x86.avx512.vpdpbusd",
    "x86.avx512.vpdpwssd",
    "arm.neon.sdot",
    "arm.neon.udot",
    "nvvm.wmma.m16n16k16.mma.row.row.f32.f32",
]


def _random_operands(intrin: TensorIntrinsic, rng: np.random.Generator):
    operands = {}
    for tensor in intrin.input_tensors:
        if tensor.dtype.is_integer:
            lo = max(tensor.dtype.min_value, -10)
            hi = min(tensor.dtype.max_value, 10)
            operands[tensor.name] = rng.integers(lo, hi + 1, size=tensor.shape).astype(
                tensor.dtype.np_dtype
            )
        else:
            operands[tensor.name] = rng.standard_normal(tensor.shape).astype(
                tensor.dtype.np_dtype
            )
    if intrin.accumulate:
        out = intrin.output
        operands[out.name] = rng.standard_normal(out.shape).astype(out.dtype.np_dtype)
    return operands


class TestRegistry:
    def test_builtins_registered(self):
        names = list_intrinsics()
        for name in _TENSORIZED:
            assert name in names

    def test_targets(self):
        assert {i.name for i in intrinsics_for_target("x86")} >= {
            "x86.avx512.vpdpbusd",
            "x86.avx512.fma.fp32",
        }
        assert any(i.name == "arm.neon.sdot" for i in intrinsics_for_target("arm"))
        assert any(i.target == "cuda" for i in intrinsics_for_target("cuda"))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_intrinsic("x86.avx512.does_not_exist")

    def test_register_custom(self):
        from repro.isa.vnni import make_vpdpbusd

        register_intrinsic("test.custom.vnni", make_vpdpbusd)
        assert "test.custom.vnni" in list_intrinsics()


class TestStructure:
    def test_vnni_shape(self):
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        assert vnni.output_lanes == 16
        assert vnni.reduction_width == 4
        assert vnni.macs_per_call == 64
        assert vnni.is_mixed_precision
        assert not vnni.accumulate
        assert sorted(t.dtype.name for t in vnni.input_tensors) == ["int32", "int8", "uint8"]

    def test_arm_dot_shape(self):
        sdot = get_intrinsic("arm.neon.sdot")
        assert sdot.output_lanes == 4
        assert sdot.reduction_width == 4
        assert sdot.macs_per_call == 16
        assert sdot.is_mixed_precision

    def test_wmma_shape(self):
        wmma = get_intrinsic("nvvm.wmma.m16n16k16.mma.row.row.f32.f32")
        assert wmma.output_lanes == 256
        assert wmma.reduction_width == 16
        assert wmma.macs_per_call == 4096
        assert wmma.accumulate
        assert wmma.is_mixed_precision

    def test_simd_fma_not_mixed_precision(self):
        fma = get_intrinsic("x86.avx512.fma.fp32")
        assert fma.reduction_width == 1
        assert not fma.is_mixed_precision


class TestSemantics:
    @pytest.mark.parametrize("name", _TENSORIZED)
    def test_hardware_model_matches_dsl_description(self, name, rng):
        """The numpy hardware model and the interpreted DSL program agree."""
        intrin = get_intrinsic(name)
        for trial in range(3):
            operands = _random_operands(intrin, rng)
            hw = intrin.execute(operands)
            ref = intrin.reference(operands)
            if intrin.output_dtype.is_float:
                np.testing.assert_allclose(hw, ref, rtol=1e-3, atol=1e-3)
            else:
                assert np.array_equal(hw, ref)

    def test_reference_semantics_raise_no_warnings(self):
        """The library must not route through deprecated spellings of its own
        API (``reference`` once called the ``tir.execute`` shim)."""
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        zeros = {t.name: np.zeros(t.shape, t.dtype.np_dtype) for t in vnni.input_tensors}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = vnni.reference(zeros)
        assert not out.any()

    def test_vpdpbusd_known_value(self):
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        a = np.arange(64, dtype=np.uint8)
        b = np.ones(64, dtype=np.int8)
        c = np.full(16, 5, dtype=np.int32)
        out = vnni.execute({"vnni_a": a, "vnni_b": b, "vnni_c": c})
        expected = c + a.reshape(16, 4).sum(axis=1)
        assert np.array_equal(out, expected)

    def test_sdot_known_value(self):
        sdot = get_intrinsic("arm.neon.sdot")
        a = np.full(16, -2, dtype=np.int8)
        b = np.full(16, 3, dtype=np.int8)
        c = np.zeros(4, dtype=np.int32)
        out = sdot.execute({"sdot_a": a, "sdot_b": b, "sdot_c": c})
        assert np.array_equal(out, np.full(4, -24, dtype=np.int32))

    def test_wmma_is_matmul_accumulate(self, rng):
        wmma = get_intrinsic("nvvm.wmma.m16n16k16.mma.row.row.f32.f32")
        a = rng.standard_normal((16, 16)).astype(np.float16)
        b = rng.standard_normal((16, 16)).astype(np.float16)
        c = rng.standard_normal((16, 16)).astype(np.float32)
        out = wmma.execute({"wmma_a": a, "wmma_b": b, "wmma_c": c})
        expected = c + a.astype(np.float32) @ b.astype(np.float32)
        np.testing.assert_allclose(out, expected, rtol=1e-3, atol=1e-3)

    def test_missing_operand_raises(self):
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        with pytest.raises(KeyError):
            vnni.execute({"vnni_a": np.zeros(64, np.uint8)})

    def test_wrong_shape_raises(self):
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        with pytest.raises(ValueError):
            vnni.execute(
                {
                    "vnni_a": np.zeros(32, np.uint8),
                    "vnni_b": np.zeros(64, np.int8),
                    "vnni_c": np.zeros(16, np.int32),
                }
            )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_property_vpdpbusd_saturates_nothing_in_range(seed):
    """For in-range int8/uint8 inputs the accumulation is exact (no overflow)."""
    rng = np.random.default_rng(seed)
    vnni = get_intrinsic("x86.avx512.vpdpbusd")
    a = rng.integers(0, 256, 64).astype(np.uint8)
    b = rng.integers(-128, 128, 64).astype(np.int8)
    c = rng.integers(-1000, 1000, 16).astype(np.int32)
    out = vnni.execute({"vnni_a": a, "vnni_b": b, "vnni_c": c})
    wide = c.astype(np.int64) + (
        a.astype(np.int64) * b.astype(np.int64)
    ).reshape(16, 4).sum(axis=1)
    assert np.array_equal(out.astype(np.int64), wide)
