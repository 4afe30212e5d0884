"""``repro.isa`` — tensorized instructions as tensor-DSL programs.

Each supported instruction (Intel VNNI, ARM DOT, Nvidia Tensor Core WMMA, and
the plain-SIMD baselines) is described by a :class:`TensorIntrinsic`: its
semantics as a small DSL program, an exact numpy hardware model, and the
performance characteristics the machine simulators consume.
"""

from .arm_dot import DOT_LANES, DOT_REDUCTION, make_sdot, make_udot
from .intrinsic import IntrinsicPerf, NativeLowering, TensorIntrinsic
from .registry import (
    default_intrinsic_for_target,
    get_intrinsic,
    intrinsics_for_target,
    list_intrinsics,
    register_intrinsic,
)
from .simd import (
    make_avx512_fma_fp32,
    make_avx512_fma_int8_via_widen,
    make_neon_mla_int8,
)
from .tensor_core import WMMA_K, WMMA_M, WMMA_N, make_wmma_16x16x16
from .vnni import VNNI_LANES, VNNI_REDUCTION, make_vpdpbusd, make_vpdpwssd

__all__ = [
    "TensorIntrinsic",
    "IntrinsicPerf",
    "NativeLowering",
    "register_intrinsic",
    "get_intrinsic",
    "list_intrinsics",
    "intrinsics_for_target",
    "default_intrinsic_for_target",
    "make_vpdpbusd",
    "make_vpdpwssd",
    "make_sdot",
    "make_udot",
    "make_wmma_16x16x16",
    "make_avx512_fma_fp32",
    "make_avx512_fma_int8_via_widen",
    "make_neon_mla_int8",
    "VNNI_LANES",
    "VNNI_REDUCTION",
    "DOT_LANES",
    "DOT_REDUCTION",
    "WMMA_M",
    "WMMA_N",
    "WMMA_K",
]
