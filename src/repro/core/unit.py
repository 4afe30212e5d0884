"""The UNIT single-operator pipeline (Figure 3).

``tensorize()`` glues the pieces together for one tensor operation: run the
Inspector to find an applicable instruction and loop mapping, let the Rewriter
reorganize the loops and organise the rest of the nest for the target
(CPU breaking-point strategy or GPU outer-product strategy), lower to tensor
IR, and replace the marked loop nest with the tensorized instruction call.

The result can be executed by the interpreter (functional correctness) and
costed by the machine models (performance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from ..dsl.compute import ComputeOp
from ..dsl.tensor import Tensor
from ..inspector import InspectionResult, applicable_intrinsics, inspect_applicability
from ..isa.intrinsic import TensorIntrinsic
from ..isa.registry import get_intrinsic
from ..rewriter import (
    CpuScheduleReport,
    CpuTuningConfig,
    GpuScheduleReport,
    GpuTuningConfig,
    TensorizeError,
    TensorizeSpec,
    apply_cpu_schedule,
    apply_gpu_schedule,
    replace_tensorize,
    reorganize_loops,
)
from ..tir import PrimFunc, alloc_buffers, lower
from ..tir.executor import Executor

__all__ = ["TensorizeResult", "tensorize", "select_intrinsic", "validate_tensorize"]


@dataclass
class TensorizeResult:
    """Everything produced by tensorizing one operation."""

    operation: ComputeOp
    intrinsic: TensorIntrinsic
    inspection: InspectionResult
    spec: TensorizeSpec
    func: PrimFunc
    config: Union[CpuTuningConfig, GpuTuningConfig, None]
    schedule_report: Union[CpuScheduleReport, GpuScheduleReport, None]

    def execute(
        self,
        buffers: Dict[Tensor, np.ndarray],
        executor: Optional[Executor] = None,
    ) -> np.ndarray:
        """Run the tensorized program on numpy buffers (correctness check).

        Executes through a :class:`repro.tir.Executor` — pass one to control
        the tier and validation policy (the vectorized tier by default).
        """
        executor = executor or Executor(tier="vectorized")
        return executor.run(self.func, buffers)

    @property
    def num_feasible_mappings(self) -> int:
        return len(self.inspection.mappings)

    def __repr__(self) -> str:
        return (
            f"TensorizeResult({self.operation.name} via {self.intrinsic.name}, "
            f"{self.num_feasible_mappings} feasible mapping(s))"
        )


def select_intrinsic(operation_or_tensor, target: str) -> InspectionResult:
    """Pick the best applicable instruction registered for ``target``.

    Raises :class:`TensorizeError` when nothing applies — the caller should
    then fall back to plain vectorised code.
    """
    results = applicable_intrinsics(operation_or_tensor, target)
    if not results:
        op = getattr(operation_or_tensor, "op", operation_or_tensor)
        raise TensorizeError(
            f"no tensorized instruction registered for target {target!r} applies "
            f"to operation {op.name!r}"
        )
    return results[0]


def validate_tensorize(
    result: TensorizeResult,
    rng: Optional[np.random.Generator] = None,
    executor: Optional[Executor] = None,
) -> None:
    """Numerically validate a tensorized function against its operation.

    Executes ``result.func`` and the plain (default-schedule) lowering of the
    original operation over identical random buffers through ``executor``
    (the vectorized tier by default).  Integer outputs must be
    *bit-identical*; floating-point outputs are compared with a tight
    ``allclose`` tolerance, because tensorized instructions legitimately
    reassociate the reduction (e.g. the WMMA hardware model accumulates a
    16-wide K slab per call).  Raises
    :class:`TensorizeError` on any mismatch.  This is the functional oracle
    the schedule verification and tuning paths share; with the vectorized
    engine it is cheap enough to run per tuned workload.
    """
    rng = rng or np.random.default_rng(0)
    executor = executor or Executor(tier="vectorized")
    reference = lower(result.operation, name=f"{result.operation.name}_ref")
    buffers = alloc_buffers(result.func, rng)
    got = executor.run(result.func, {t: a.copy() for t, a in buffers.items()})
    expected = executor.run(reference, {t: a.copy() for t, a in buffers.items()})
    if result.func.output.dtype.is_integer:
        ok = np.array_equal(got, expected)
    else:
        ok = np.allclose(got, expected, rtol=1e-4, atol=1e-5)
    if not ok:
        mismatch = int(np.sum(got != expected))
        raise TensorizeError(
            f"tensorized {result.operation.name!r} via {result.intrinsic.name} "
            f"does not reproduce the reference ({mismatch} of "
            f"{expected.size} elements differ)"
        )


def tensorize(
    operation_or_tensor,
    intrinsic: Union[str, TensorIntrinsic, None] = None,
    target: Optional[str] = None,
    config: Union[CpuTuningConfig, GpuTuningConfig, None] = None,
    mapping_index: int = 0,
    validate: bool = False,
) -> TensorizeResult:
    """Tensorize one operation with a given instruction (or the target's best).

    Parameters
    ----------
    operation_or_tensor:
        A computed tensor (or its ComputeOp) written in the tensor DSL.
    intrinsic:
        A :class:`TensorIntrinsic` or registered name.  When omitted,
        ``target`` must be given and the best applicable instruction is chosen.
    config:
        The schedule configuration for the non-tensorized loops.  Defaults to
        the recommended first tuning pair for the instruction's platform.
    mapping_index:
        Which feasible loop mapping to use (0 = the greedy innermost choice);
        alternative mappings are a dimension of the tuning space.
    validate:
        Also run :func:`validate_tensorize` — execute the tensorized function
        through the vectorized engine against the operation's plain lowering:
        bit-identical for integer kernels, tight tolerance for floats (whose
        reductions the instruction may legitimately reassociate).
    """
    op = getattr(operation_or_tensor, "op", operation_or_tensor)

    if intrinsic is None:
        if target is None:
            raise ValueError("either an intrinsic or a target must be provided")
        inspection = select_intrinsic(op, target)
        intrin = inspection.intrinsic
    else:
        intrin = get_intrinsic(intrinsic) if isinstance(intrinsic, str) else intrinsic
        inspection = inspect_applicability(op, intrin)
        if not inspection.applicable:
            raise TensorizeError(
                f"{intrin.name} is not applicable to {op.name}: {inspection.reason}"
            )

    mappings = inspection.mappings
    if not 0 <= mapping_index < len(mappings):
        raise IndexError(
            f"mapping_index {mapping_index} out of range (found {len(mappings)} mappings)"
        )
    spec = reorganize_loops(inspection, mapping=mappings[mapping_index])

    report: Union[CpuScheduleReport, GpuScheduleReport, None] = None
    if intrin.target in ("x86", "arm"):
        cpu_config = config if isinstance(config, CpuTuningConfig) else CpuTuningConfig()
        report = apply_cpu_schedule(spec, cpu_config)
        config = cpu_config
    elif intrin.target == "cuda":
        gpu_config = config if isinstance(config, GpuTuningConfig) else GpuTuningConfig()
        report = apply_gpu_schedule(spec, gpu_config)
        config = gpu_config

    func = lower(spec.schedule)
    # replace_tensorize runs the full static verification tier; the report
    # stays on the function for a later analyze() / compile_plan() to read.
    func = replace_tensorize(func, spec)
    result = TensorizeResult(
        operation=op,
        intrinsic=intrin,
        inspection=inspection,
        spec=spec,
        func=func,
        config=config,
        schedule_report=report,
    )
    if validate:
        validate_tensorize(result)
    return result
