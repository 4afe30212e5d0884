"""The unified tensorized-instruction abstraction (Section III-A).

A :class:`TensorIntrinsic` packages three things:

1. its **semantics**, written as a small tensor-DSL program — exactly the
   listings of Figure 4 (this is what the Inspector matches against);
2. its **hardware model** — an exact lane-by-lane numpy implementation used by
   the interpreter as the golden functional model of the instruction;
3. its **performance characteristics** — issue latency/throughput, number of
   MAC lanes, register width — consumed by the hardware simulators.

The abstraction is what makes UNIT "unified": adding a new instruction means
writing one new description, not a new compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..dsl.axis import IterAxis
from ..dsl.compute import ComputeOp
from ..dsl.dtype import DType
from ..dsl.tensor import Tensor
from ..tir import Executor, lower

__all__ = ["TensorIntrinsic", "IntrinsicPerf", "NativeLowering", "dot_product_grid"]


def dot_product_grid(a_name: str, b_name: str):
    """A grid-form *contribution* model for accumulator dot products.

    Implements the :attr:`TensorIntrinsic.grid_impl` contract for every
    instruction of the family ``d[i] = c[i] + sum_j a[f(i,j)] * b[g(i,j)]``:
    given the ``a``/``b`` operands evaluated pointwise on ``lead + iteration
    axes`` grids (possibly zero-stride broadcast views — they are consumed
    without materialisation), it returns the accumulator *contribution*
    ``sum_j a*b`` with the requested leading axes folded into the same exact
    int32 accumulation.  Every 8/16-bit product and reduction-width sum fits
    int32, so the fused ``einsum`` is bit-identical to the per-call hardware
    model under wraparound integer addition.
    """

    def impl(operands: Dict[str, np.ndarray], reduce_axes=()) -> np.ndarray:
        a = operands[a_name]
        b = operands[b_name]
        nd = a.ndim
        reduced = set(reduce_axes)
        subs = list(range(nd))
        keep = [d for d in range(nd - 2) if d not in reduced]
        return np.einsum(a, subs, b, subs, keep + [nd - 2], dtype=np.int32)

    return impl


@dataclass(frozen=True)
class IntrinsicPerf:
    """Performance characteristics used by the analytical machine models.

    Attributes
    ----------
    latency_cycles:
        Result latency of one instruction (creates the RAW-hazard penalty the
        CPU tuner's unrolling hides — Section III-C).
    throughput_per_cycle:
        How many of these instructions one core / one sub-core unit can issue
        per cycle when the pipeline is saturated.
    issue_ports:
        Number of execution ports/units able to execute the instruction.
    """

    latency_cycles: float = 4.0
    throughput_per_cycle: float = 1.0
    issue_ports: int = 1


@dataclass(frozen=True)
class NativeLowering:
    """How the C emitter spells the real instruction (``generate_c``).

    The codegen half of the paper's "moderate effort" story: next to the LLVM
    intrinsic name, an instruction that a C compiler can reach carries the
    spellings of its vendor intrinsic.  The emitter wraps them in
    ``#if defined(feature_macro)`` (the compiler's own predefined macro is the
    CPU probe) and keeps the scalar expansion as the ``#else`` branch.

    Every spelling is a ``str.format`` template.  ``vector_type``, ``load``,
    ``broadcast`` and ``store`` are formatted per operand register with
    ``elem`` (``int8``/``uint8``/``int32`` ...), ``sfx`` (``s8``/``u8``/
    ``s32`` ...) and ``lanes``; ``load`` and ``store`` also get ``ptr`` (an
    element pointer), ``store`` gets ``value``, and ``broadcast`` gets
    ``scalar`` — an ``int32_t`` holding one contiguous 4-byte reduction group
    to replicate across the register.  ``op`` is formatted with one field per
    operand register, named after the DSL description's tensors.
    """

    instruction: str
    header: str
    feature_macro: str
    vector_type: str
    load: str
    broadcast: str
    op: str
    store: str


class TensorIntrinsic:
    """A tensorized (or vector) instruction described in the tensor DSL."""

    def __init__(
        self,
        name: str,
        op: ComputeOp,
        target: str,
        llvm_intrinsic: str = "",
        native_lowering: Optional[NativeLowering] = None,
        perf: Optional[IntrinsicPerf] = None,
        hardware_impl: Optional[Callable[[Dict[str, np.ndarray]], np.ndarray]] = None,
        description: str = "",
        batchable: bool = False,
        grid_impl: Optional[Callable] = None,
    ) -> None:
        self.name = name
        self.op = op
        self.target = target
        self.llvm_intrinsic = llvm_intrinsic or name
        self.native_lowering = native_lowering
        self.perf = perf or IntrinsicPerf()
        self.hardware_impl = hardware_impl
        self.description = description
        # Whether ``hardware_impl`` is batch-polymorphic: given operands with
        # one extra leading batch axis it returns the batched result.  Set by
        # the instruction descriptions whose models are written rank-
        # polymorphically; the vectorized engine exploits it.
        self.batchable = batchable
        # Optional *grid-form contribution* model, the fast path of the
        # engine's cross-round batched dispatch.  Contract:
        # ``grid_impl(operands, reduce_axes)`` receives every non-accumulator
        # operand evaluated pointwise on a ``lead + iteration-axes`` grid
        # (arrays may be zero-stride broadcast views; implementations must
        # consume them without materialising, e.g. through ``einsum``), and
        # returns the accumulator *contribution* — the instruction's output
        # with a zeroed accumulator — summed over the leading ``reduce_axes``
        # (which are dropped from the result) in the output register layout.
        # Only sound for instructions whose accumulation is exact under
        # reordering (integer wraparound); see ``dot_product_grid``.
        self.grid_impl = grid_impl

    # -- structural views --------------------------------------------------
    @property
    def output(self) -> Tensor:
        return self.op.output

    @property
    def input_tensors(self) -> List[Tensor]:
        return self.op.input_tensors

    @property
    def axes(self) -> List[IterAxis]:
        """All iteration axes of the instruction's DSL description."""
        return self.op.all_axes

    @property
    def data_parallel_axes(self) -> List[IterAxis]:
        return list(self.op.axes)

    @property
    def reduce_axes(self) -> List[IterAxis]:
        return self.op.reduce_axes

    @property
    def output_lanes(self) -> int:
        """Number of output elements produced per instruction."""
        return self.op.output.num_elements

    @property
    def reduction_width(self) -> int:
        """Number of elements accumulated horizontally per output lane."""
        width = 1
        for ax in self.reduce_axes:
            width *= ax.extent
        return width

    @property
    def macs_per_call(self) -> int:
        """Multiply-accumulate operations executed by one instruction."""
        return self.output_lanes * self.reduction_width

    @property
    def operand_dtypes(self) -> List[DType]:
        return [t.dtype for t in self.input_tensors]

    @property
    def output_dtype(self) -> DType:
        return self.op.output.dtype

    @property
    def is_mixed_precision(self) -> bool:
        """Whether the accumulation dtype is wider than the operand dtypes."""
        narrow = [d for d in self.operand_dtypes if d != self.output_dtype]
        return any(d.bits < self.output_dtype.bits for d in narrow)

    @property
    def accumulate(self) -> bool:
        """Whether the destination register is also the accumulator source."""
        return self.op.accumulate

    # -- functional execution ----------------------------------------------
    def execute(self, operands: Dict[str, np.ndarray]) -> np.ndarray:
        """Execute the instruction on register contents.

        ``operands`` maps the DSL operand tensor names to numpy arrays with the
        register shapes.  Returns the destination register contents.  Uses the
        hand-written hardware model when available, otherwise falls back to
        interpreting the DSL description (both paths are cross-checked in the
        test suite).
        """
        self._check_operands(operands)
        if self.hardware_impl is not None:
            return self.hardware_impl(operands)
        return self.reference(operands)

    def execute_batch(self, operands: Dict[str, np.ndarray], batch: int) -> np.ndarray:
        """Execute the instruction over a whole batch of register sets.

        ``operands`` maps operand names to arrays of shape ``(batch, *reg)``.
        Batch-polymorphic hardware models run in one call; others fall back
        to a per-point loop, which still spares the caller all per-lane
        Python evaluation.  Returns ``(batch, *out_reg)``.
        """
        out_shape = (batch,) + self.output.shape
        if self.hardware_impl is not None and self.batchable:
            result = np.asarray(self.hardware_impl(operands))
            if result.shape != out_shape:  # pragma: no cover - model bug guard
                raise ValueError(
                    f"{self.name}: batched hardware model returned shape "
                    f"{result.shape}, expected {out_shape}"
                )
            return result
        result = np.empty(out_shape, dtype=self.output.dtype.np_dtype)
        for i in range(batch):
            result[i] = self.execute({k: v[i] for k, v in operands.items()})
        return result

    def reference(self, operands: Dict[str, np.ndarray]) -> np.ndarray:
        """Execute the instruction by interpreting its DSL description."""
        self._check_operands(operands)
        func = lower(self.op, name=f"{self.op.name}_ref")
        buffers = {}
        for tensor in func.inputs:
            buffers[tensor] = np.ascontiguousarray(
                operands[tensor.name], dtype=tensor.dtype.np_dtype
            )
        out = func.output
        if self.accumulate:
            init = operands.get(out.name)
            if init is None:
                init = np.zeros(out.shape, dtype=out.dtype.np_dtype)
            buffers[out] = np.array(init, dtype=out.dtype.np_dtype, copy=True)
        else:
            buffers[out] = np.zeros(out.shape, dtype=out.dtype.np_dtype)
        return Executor(tier="vectorized").run(func, buffers)

    def _check_operands(self, operands: Dict[str, np.ndarray]) -> None:
        for tensor in self.input_tensors:
            if tensor.name not in operands:
                raise KeyError(f"{self.name}: missing operand {tensor.name!r}")
            got = operands[tensor.name]
            if tuple(np.shape(got)) != tensor.shape:
                raise ValueError(
                    f"{self.name}: operand {tensor.name!r} has shape "
                    f"{np.shape(got)}, expected {tensor.shape}"
                )

    def __repr__(self) -> str:
        ins = ", ".join(f"{t.name}:{t.dtype.name}x{t.num_elements}" for t in self.input_tensors)
        return (
            f"TensorIntrinsic({self.name}, [{ins}] -> "
            f"{self.output_dtype.name}x{self.output_lanes}, target={self.target})"
        )
