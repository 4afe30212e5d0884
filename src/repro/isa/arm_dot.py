"""ARM DOT-product instructions (``sdot`` / ``udot``), Figure 4(b).

Each instruction consumes two 128-bit registers of 16 × int8 (or uint8)
values plus a 128-bit accumulator of 4 × int32 values and produces
``d[i] = c[i] + sum_{j<4} a[4i+j] * b[4i+j]``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..dsl import cast, compute, placeholder, reduce_axis, sum_reduce
from .intrinsic import IntrinsicPerf, NativeLowering, TensorIntrinsic, dot_product_grid

__all__ = ["make_sdot", "make_udot", "DOT_LANES", "DOT_REDUCTION"]

DOT_LANES = 4
DOT_REDUCTION = 4


def _dot_hw(prefix: str):
    # Rank-polymorphic (leading batch axes pass through) so the vectorized
    # engine can execute whole rounds of calls at once.  The dot products
    # accumulate in int32 via ``einsum`` (exact: every 8-bit product and
    # 4-wide sum fits int32, signed or unsigned), skipping the widened
    # product temporaries of the naive formulation.
    def impl(operands: Dict[str, np.ndarray]) -> np.ndarray:
        a = operands[f"{prefix}_a"]
        b = operands[f"{prefix}_b"]
        c = operands[f"{prefix}_c"].astype(np.int32)
        prod = np.einsum(
            "...ij,...ij->...i",
            a.reshape(a.shape[:-1] + (DOT_LANES, DOT_REDUCTION)),
            b.reshape(b.shape[:-1] + (DOT_LANES, DOT_REDUCTION)),
            dtype=np.int32,
        )
        return (c + prod).astype(np.int32)

    return impl


def _make_dot(
    name: str, prefix: str, a_dtype: str, b_dtype: str, llvm: str, op: str
) -> TensorIntrinsic:
    a = placeholder((DOT_LANES * DOT_REDUCTION,), a_dtype, f"{prefix}_a")
    b = placeholder((DOT_LANES * DOT_REDUCTION,), b_dtype, f"{prefix}_b")
    c = placeholder((DOT_LANES,), "int32", f"{prefix}_c")
    j = reduce_axis(0, DOT_REDUCTION, f"{prefix}_j")
    d = compute(
        (DOT_LANES,),
        lambda i: c[i]
        + sum_reduce(
            cast("int32", a[i * DOT_REDUCTION + j]) * cast("int32", b[i * DOT_REDUCTION + j]),
            j,
        ),
        name=f"{prefix}_d",
        axis_names=[f"{prefix}_i"],
    )
    return TensorIntrinsic(
        name=name,
        op=d.op,
        target="arm",
        llvm_intrinsic=llvm,
        native_lowering=NativeLowering(
            instruction=prefix,
            header="arm_neon.h",
            feature_macro="__ARM_FEATURE_DOTPROD",
            vector_type="{elem}x{lanes}_t",
            load="vld1q_{sfx}({ptr})",
            broadcast="vreinterpretq_{sfx}_s32(vdupq_n_s32({scalar}))",
            op=op,
            store="vst1q_{sfx}({ptr}, {value})",
        ),
        perf=IntrinsicPerf(latency_cycles=3.0, throughput_per_cycle=2.0, issue_ports=2),
        hardware_impl=_dot_hw(prefix),
        grid_impl=dot_product_grid(f"{prefix}_a", f"{prefix}_b"),
        description=f"{a_dtype} x {b_dtype} dot-product into int32, 4 lanes, width 4",
        batchable=True,
    )


def make_sdot() -> TensorIntrinsic:
    """Signed int8 dot product (``sdot``)."""
    return _make_dot(
        "arm.neon.sdot", "sdot", "int8", "int8", "llvm.aarch64.neon.sdot.v4i32.v16i8",
        "vdotq_s32({sdot_c}, {sdot_a}, {sdot_b})",
    )


def make_udot() -> TensorIntrinsic:
    """Unsigned/signed mixed dot product (``udot``)."""
    # The description accumulates in int32; the instruction's registers are
    # uint32 — the same bits under wraparound addition.
    return _make_dot(
        "arm.neon.udot", "udot", "uint8", "uint8", "llvm.aarch64.neon.udot.v4i32.v16i8",
        "vreinterpretq_s32_u32(vdotq_u32(vreinterpretq_u32_s32({udot_c}), {udot_a}, {udot_b}))",
    )
