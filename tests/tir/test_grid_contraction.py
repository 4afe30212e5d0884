"""The grid-form contraction against the scalar interpreter.

A grid-form step runs every round of an accumulator dot product as one int32
matrix product over compressed operand gathers.  Each program here is run
three ways — the scalar interpreter, the grid step, and the same plan with
the instruction's ``grid_impl`` removed (so it runs round by round) — and all
three must agree byte for byte, with the round counters of the two engine
paths equal.
"""

import numpy as np
import pytest

from repro.core import tensorize
from repro.dsl import cast, compute, placeholder, reduce_axis, sum_reduce
from repro.rewriter import CpuTuningConfig
from repro.tir import EngineStats, Interpreter, IntrinsicCall, PrimFunc, collect, compile_plan
from repro.tir.backend import same_bits
from repro.tir.engine import _GridIntrinsicStep
from repro.workloads import (
    Conv2DParams,
    DenseParams,
    conv2d_hwc,
    conv2d_nchwc,
    conv3d_from_conv2d,
    conv3d_ncdhwc,
    dense_int8,
)
from repro.workloads.table1 import TABLE1_LAYERS
from tests.conftest import scaled_table1

# name: (registered instruction, output lanes, reduction width, a dtype, b dtype)
INTRINSICS = {
    "vpdpbusd": ("x86.avx512.vpdpbusd", 16, 4, "uint8", "int8"),
    "vpdpwssd": ("x86.avx512.vpdpwssd", 16, 2, "int16", "int16"),
    "sdot": ("arm.neon.sdot", 4, 4, "int8", "int8"),
    "udot": ("arm.neon.udot", 4, 4, "uint8", "uint8"),
}


def _matmul(m, n, k, a_dtype, b_dtype):
    a = placeholder((m, k), a_dtype, "A")
    b = placeholder((n, k), b_dtype, "B")
    rk = reduce_axis(0, k, "rk")
    return compute(
        (m, n),
        lambda i, j: sum_reduce(cast("int32", a[i, rk]) * cast("int32", b[j, rk]), rk),
        name="mm",
    )


def _batched_matmul(batch, m, n, k, a_dtype, b_dtype):
    """``C[z] = A[z] @ B[z].T``: every batch has its own weights, so neither
    operand's distinct rows factor the shared fused axis."""
    a = placeholder((batch, m, k), a_dtype, "A")
    b = placeholder((batch, n, k), b_dtype, "B")
    rk = reduce_axis(0, k, "rk")
    return compute(
        (batch, m, n),
        lambda z, i, j: sum_reduce(cast("int32", a[z, i, rk]) * cast("int32", b[z, j, rk]), rk),
        name="bmm",
    )


SMALL_CONV = Conv2DParams(in_channels=8, in_height=6, in_width=6, out_channels=32, kernel=3)

WORKLOADS = {
    "dense": lambda lanes, red, a, b: dense_int8(
        DenseParams(batch=3, in_features=24, out_features=20), lanes, red, a, b
    ),
    "conv2d_nchwc": lambda lanes, red, a, b: conv2d_nchwc(SMALL_CONV, lanes, red, a, b),
    "conv3d": lambda lanes, red, a, b: conv3d_ncdhwc(
        conv3d_from_conv2d(
            Conv2DParams(in_channels=4, in_height=4, in_width=4, out_channels=16, kernel=3),
            depth=3,
        ),
        lanes, red, a, b,
    ),
    "matmul": lambda lanes, red, a, b: _matmul(5, 2 * lanes, 32, a, b),
    "conv2d_hwc": lambda lanes, red, a, b: conv2d_hwc(
        Conv2DParams(in_channels=8, in_height=5, in_width=5, out_channels=16, kernel=3), a, b
    ),
    "batched_matmul": lambda lanes, red, a, b: _batched_matmul(3, 4, 2 * lanes, 16, a, b),
}
for _index, _params in enumerate(TABLE1_LAYERS, start=1):
    WORKLOADS[f"table1_layer{_index}"] = (
        lambda lanes, red, a, b, params=scaled_table1(_params, spatial=3): conv2d_nchwc(
            params, lanes, red, a, b
        )
    )


def _full_range(func, rng, values=None):
    """Every input over its dtype's whole range (or drawn from ``values``),
    the output zeroed: int16 dot products then wrap around int32."""
    buffers = {}
    for tensor in func.params:
        dtype = tensor.dtype.np_dtype
        if tensor is func.output:
            buffers[tensor] = np.zeros(tensor.shape, dtype=dtype)
        elif values is not None:
            buffers[tensor] = rng.choice(np.array(values, dtype=dtype), size=tensor.shape)
        else:
            info = np.iinfo(dtype)
            buffers[tensor] = rng.integers(info.min, info.max + 1, tensor.shape, dtype=dtype)
    return buffers


def _copy(buffers):
    return {t: a.copy() for t, a in buffers.items()}


def _check(func, buffers, monkeypatch):
    """Interpreter ≡ grid step ≡ round by round, byte for byte; returns the
    grid plan's steps."""
    expected = Interpreter(func).run(_copy(buffers))

    plan = compile_plan(func, strict=True)
    grid_steps = [s for s in plan.steps if isinstance(s, _GridIntrinsicStep)]
    assert grid_steps, "the program did not take the grid form"
    grid = EngineStats()
    assert same_bits(plan.run(_copy(buffers), stats=grid), expected)
    # A second run reuses the layout the first one built.
    assert same_bits(plan.run(_copy(buffers)), expected)

    for call in collect(func.body, lambda s: isinstance(s, IntrinsicCall)):
        monkeypatch.setattr(call.intrin, "grid_impl", None)
    rounds = EngineStats()
    assert same_bits(compile_plan(func, strict=True).run(_copy(buffers), stats=rounds), expected)

    assert grid.intrinsic_round_batches == len(grid_steps)
    assert rounds.intrinsic_round_batches == 0
    assert grid.intrinsic_rounds == rounds.intrinsic_rounds
    assert grid.intrinsic_points == rounds.intrinsic_points
    return grid_steps


@pytest.mark.parametrize("intrinsic", sorted(INTRINSICS))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_matches_interpreter(workload, intrinsic, monkeypatch):
    name, lanes, red, a_dtype, b_dtype = INTRINSICS[intrinsic]
    func = tensorize(WORKLOADS[workload](lanes, red, a_dtype, b_dtype), name).func
    steps = _check(func, _full_range(func, np.random.default_rng(len(workload))), monkeypatch)
    if workload == "batched_matmul":
        assert not any(step.layout.factored for step in steps)
    elif workload.startswith("table1"):
        assert all(step.layout.factored for step in steps)


@pytest.mark.parametrize("intrinsic", sorted(INTRINSICS))
def test_prefilled_accumulator(intrinsic, monkeypatch):
    """Without its zeroing nest the program accumulates onto whatever the
    output holds: full-range int32 values, so the final add wraps too."""
    name, lanes, red, a_dtype, b_dtype = INTRINSICS[intrinsic]
    func = tensorize(conv2d_nchwc(SMALL_CONV, lanes, red, a_dtype, b_dtype), name).func
    nest = func.body.stmts[-1]
    assert collect(nest, lambda s: isinstance(s, IntrinsicCall))
    accumulate = PrimFunc("accumulate", func.params, nest, op=None)
    rng = np.random.default_rng(3)
    buffers = _full_range(accumulate, rng)
    info = np.iinfo(np.int32)
    buffers[func.output] = rng.integers(info.min, info.max + 1, func.output.shape, dtype=np.int32)
    _check(accumulate, buffers, monkeypatch)


def test_vpdpwssd_extremes_wrap_around(monkeypatch):
    """Products of ±32767 / -32768 are about 2**30, so sums over 64 of them
    leave int32: the grid step must wrap exactly as the instruction does."""
    func = tensorize(_matmul(4, 32, 64, "int16", "int16"), "x86.avx512.vpdpwssd").func
    buffers = _full_range(func, np.random.default_rng(5), values=[-32768, 32767, -32767])
    expected = Interpreter(func).run(_copy(buffers))
    a, b = (buffers[t].astype(np.int64) for t in func.inputs)
    assert not np.array_equal(expected, a @ b.T)  # the int32 sums did wrap
    _check(func, buffers, monkeypatch)


@pytest.mark.parametrize("intrinsic", ["vpdpbusd", "sdot"])
def test_residue_guard_scatters_selected_rows(intrinsic, monkeypatch):
    """A ragged split of a data-parallel loop puts a guard on the batch axes
    only: the grid step still runs, and its masked scatter writes exactly the
    rows the guard admits."""
    from repro.inspector import inspect_applicability
    from repro.isa.registry import get_intrinsic
    from repro.rewriter import apply_cpu_schedule, reorganize_loops, replace_tensorize
    from repro.tir import lower

    name, lanes, red, a_dtype, b_dtype = INTRINSICS[intrinsic]
    mm = _matmul(5, 2 * lanes, 32, a_dtype, b_dtype)
    inspection = inspect_applicability(mm.op, get_intrinsic(name))
    spec = reorganize_loops(inspection, mapping=inspection.mappings[0])
    apply_cpu_schedule(spec, CpuTuningConfig())
    stage = spec.schedule.stage
    (columns,) = [loop for loop in stage.leaf_vars if loop.name == "mm_i1.o"]
    stage.split(columns, 3)  # 2 column blocks in steps of 3: one guarded out
    func = replace_tensorize(lower(spec.schedule), spec, verify=True)
    (step,) = _check(func, _full_range(func, np.random.default_rng(9)), monkeypatch)
    assert step.sel is not None
