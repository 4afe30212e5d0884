"""Intel VNNI (Vector Neural Network Instructions) descriptions.

``vpdpbusd`` (Figure 2(a)/4(a) of the paper): three 512-bit source registers —
64 lanes of uint8, 64 lanes of int8 and 16 lanes of int32 — producing 16 int32
lanes where ``d[i] = c[i] + sum_{j<4} u8(a[4i+j]) * i8(b[4i+j])``.

``vpdpwssd`` is the 16-bit variant (32 × int16 inputs, reduction width 2); the
paper does not evaluate it but lists exactly this kind of addition as the
"moderate effort" extensibility story, so it is included here and covered by
tests.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..dsl import cast, compute, placeholder, reduce_axis, sum_reduce
from .intrinsic import IntrinsicPerf, NativeLowering, TensorIntrinsic, dot_product_grid

__all__ = ["make_vpdpbusd", "make_vpdpwssd", "VNNI_LANES", "VNNI_REDUCTION"]

VNNI_LANES = 16
VNNI_REDUCTION = 4


def _avx512_lowering(instruction: str, op: str) -> NativeLowering:
    """The 512-bit integer register spellings both VNNI instructions share."""
    return NativeLowering(
        instruction=instruction,
        header="immintrin.h",
        feature_macro="__AVX512VNNI__",
        vector_type="__m512i",
        load="_mm512_loadu_si512((const void*)({ptr}))",
        broadcast="_mm512_set1_epi32({scalar})",
        op=op,
        store="_mm512_storeu_si512((void*)({ptr}), {value})",
    )


def _vpdpbusd_hw(operands: Dict[str, np.ndarray]) -> np.ndarray:
    """Exact lane-by-lane model of ``vpdpbusd`` (u8 × s8 → s32, width 4).

    Rank-polymorphic: leading batch axes on every operand are carried
    through, so the vectorized engine can execute whole rounds of calls in
    one invocation.  The dot products accumulate in int32 via ``einsum``
    (exact: every u8 × s8 product and 4-wide sum fits int32), which skips
    the widened product temporaries of the naive formulation — the batched
    engine's hottest loop.
    """
    a = operands["vnni_a"]
    b = operands["vnni_b"]
    c = operands["vnni_c"].astype(np.int32)
    prod = np.einsum(
        "...ij,...ij->...i",
        a.reshape(a.shape[:-1] + (VNNI_LANES, VNNI_REDUCTION)),
        b.reshape(b.shape[:-1] + (VNNI_LANES, VNNI_REDUCTION)),
        dtype=np.int32,
    )
    return (c + prod).astype(np.int32)


def make_vpdpbusd() -> TensorIntrinsic:
    """The AVX512-VNNI ``vpdpbusd`` instruction as a tensor-DSL program."""
    a = placeholder((VNNI_LANES * VNNI_REDUCTION,), "uint8", "vnni_a")
    b = placeholder((VNNI_LANES * VNNI_REDUCTION,), "int8", "vnni_b")
    c = placeholder((VNNI_LANES,), "int32", "vnni_c")
    j = reduce_axis(0, VNNI_REDUCTION, "vnni_j")
    d = compute(
        (VNNI_LANES,),
        lambda i: c[i]
        + sum_reduce(
            cast("int32", a[i * VNNI_REDUCTION + j]) * cast("int32", b[i * VNNI_REDUCTION + j]),
            j,
        ),
        name="vnni_d",
        axis_names=["vnni_i"],
    )
    return TensorIntrinsic(
        name="x86.avx512.vpdpbusd",
        op=d.op,
        target="x86",
        llvm_intrinsic="llvm.x86.avx512.vpdpbusd.512",
        native_lowering=_avx512_lowering(
            "vpdpbusd", "_mm512_dpbusd_epi32({vnni_c}, {vnni_a}, {vnni_b})"
        ),
        perf=IntrinsicPerf(latency_cycles=5.0, throughput_per_cycle=1.0, issue_ports=2),
        hardware_impl=_vpdpbusd_hw,
        grid_impl=dot_product_grid("vnni_a", "vnni_b"),
        description="u8 x s8 dot-product into s32, 16 lanes, reduction width 4",
        batchable=True,
    )


def _vpdpwssd_hw(operands: Dict[str, np.ndarray]) -> np.ndarray:
    """Exact model of ``vpdpwssd`` (s16 × s16 → s32, width 2)."""
    a = operands["vnni16_a"].astype(np.int32)
    b = operands["vnni16_b"].astype(np.int32)
    c = operands["vnni16_c"].astype(np.int32)
    prod = (a * b).reshape(a.shape[:-1] + (VNNI_LANES, 2)).sum(axis=-1)
    return (c + prod).astype(np.int32)


def make_vpdpwssd() -> TensorIntrinsic:
    """The AVX512-VNNI ``vpdpwssd`` (int16) instruction."""
    a = placeholder((VNNI_LANES * 2,), "int16", "vnni16_a")
    b = placeholder((VNNI_LANES * 2,), "int16", "vnni16_b")
    c = placeholder((VNNI_LANES,), "int32", "vnni16_c")
    j = reduce_axis(0, 2, "vnni16_j")
    d = compute(
        (VNNI_LANES,),
        lambda i: c[i]
        + sum_reduce(cast("int32", a[i * 2 + j]) * cast("int32", b[i * 2 + j]), j),
        name="vnni16_d",
        axis_names=["vnni16_i"],
    )
    return TensorIntrinsic(
        name="x86.avx512.vpdpwssd",
        op=d.op,
        target="x86",
        llvm_intrinsic="llvm.x86.avx512.vpdpwssd.512",
        native_lowering=_avx512_lowering(
            "vpdpwssd", "_mm512_dpwssd_epi32({vnni16_c}, {vnni16_a}, {vnni16_b})"
        ),
        perf=IntrinsicPerf(latency_cycles=5.0, throughput_per_cycle=1.0, issue_ports=2),
        hardware_impl=_vpdpwssd_hw,
        grid_impl=dot_product_grid("vnni16_a", "vnni16_b"),
        description="s16 x s16 dot-product into s32, 16 lanes, reduction width 2",
        batchable=True,
    )
