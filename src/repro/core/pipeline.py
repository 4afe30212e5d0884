"""End-to-end model compilation: UNIT as an operator runner for graph inference.

``UnitCpuRunner`` / ``UnitGpuRunner`` provide per-operator latencies obtained
by tuning UNIT's schedule space on the analytical machine models — they play
the role of the tensorized kernels UNIT generates for each layer of a model.
``compile_model`` applies the graph-level passes (quantization, operator
fusion, layout planning) and aggregates per-operator latencies into the
end-to-end inference latency of Figures 8, 9 and 12.

All runners tune through a :class:`~repro.rewriter.session.TuningSession`:
pass one session to many runners (or to ``compile_model_batch``) and
identical (workload, instruction, machine, search-space) problems are tuned
exactly once; a store-backed session (``TuningSession(store=...)``) shares
the records between processes, a
:class:`~repro.service.client.RemoteSession` between machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Union

from ..baselines.frameworks import MxnetOneDnnRunner, TvmCudnnRunner
from ..graph.estimate import GraphLatencyReport, estimate_graph_latency
from ..graph.fuse import fuse_elementwise
from ..graph.ir import DepthwiseConv2DNode, Graph
from ..graph.layout import plan_layout
from ..graph.program import ModelRun, run_model
from ..graph.quantize import quantize_graph
from ..hwsim.cost import CostBreakdown
from ..hwsim.cpu import CpuKernelModel
from ..hwsim.gpu import GpuKernelModel
from ..hwsim.machine import CASCADE_LAKE, V100, CpuSpec, GpuSpec, machine_by_name
from ..isa.registry import get_intrinsic
from ..rewriter.cpu_tuner import CpuTuningConfig, cpu_tuning_candidates
from ..rewriter.gpu_tuner import GpuTuningConfig, gpu_tuning_candidates
from ..rewriter.records import TuningKey, params_fingerprint, space_fingerprint
from ..rewriter.session import TuningSession
from ..rewriter.tuner import TuningResult
from ..tir.executor import ValidationPolicy
from ..workloads.conv2d import Conv2DParams
from ..workloads.conv3d import Conv3DParams
from ..workloads.dense import DenseParams

__all__ = [
    "UnitCpuRunner",
    "UnitGpuRunner",
    "CompiledModel",
    "Target",
    "TARGETS",
    "unit_runner",
    "prepare_graph",
    "compile_model",
    "compile_model_batch",
]

class Target(NamedTuple):
    """What a ``compile_model`` target name stands for."""

    runner: str  # "cpu" | "gpu": which UNIT runner class tunes it
    machine: str  # a repro.hwsim.machine_by_name() name
    intrinsic: str  # the tensorized instruction
    tuning: str  # the CPU runner's tuning= / the GPU runner's mode=
    dtype: str  # the quantize_graph() dtype


# The one target table: ``compile_model``'s default runner and graph passes,
# ``tasks_from_graph`` and the tuning daemon's ``expand_sweep`` all derive
# from these rows.
TARGETS = {
    "x86": Target("cpu", "cascade-lake", "x86.avx512.vpdpbusd", "full", "int8"),
    "arm": Target("cpu", "graviton2", "arm.neon.sdot", "full", "int8"),
    "cuda": Target("gpu", "v100", "nvvm.wmma.m16n16k16.mma.row.row.f32.f32", "tune", "float16"),
}


@dataclass
class CompiledModel:
    """The result of compiling one model for one target."""

    name: str
    target: str
    graph: Graph
    report: GraphLatencyReport
    layout_decisions: Dict[str, object] = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        return self.report.total_milliseconds

    def run(self, inputs, weights=None, rng=None, keep=(), executor=None) -> ModelRun:
        """Execute the compiled graph numerically, end to end.

        Runs the (quantized, fused) graph through the memory-planned,
        plan-cached whole-model executor
        (:func:`repro.graph.program.run_model`): activations share one
        liveness-planned arena and every operator executes through the
        process-wide executable-plan cache, so repeated layer shapes compile
        once.  Pass a :class:`repro.tir.Executor` via ``executor`` to select
        the execution tier and validation policy.
        """
        return run_model(
            self.graph, inputs, weights=weights, rng=rng, keep=keep, executor=executor
        )


class _SessionTunedRunner:
    """Shared tuning plumbing: key construction + session-backed search.

    Subclasses provide ``session``, ``intrin``, ``machine``, ``_space``,
    ``validation``, ``tuning_results``, ``_configs()`` and (for functional
    validation) ``_validation_op(kind, params)``.

    ``tuning_results`` holds trial-level data only for searches performed
    in-process; a record served from a cache loaded off disk carries no
    trials (they are deliberately not persisted), so keys tuned entirely
    from a warm cache are absent from it.

    Validation is governed by a :class:`~repro.tir.ValidationPolicy`
    (``validation=``): under ``SPOT`` every fresh search's winning
    configuration is functionally validated before its record enters the
    cache — the workload is tensorized with that configuration and executed
    through the engine, which must reproduce the reference lowering
    bit-identically for integer kernels, within a tight tolerance for float
    kernels (:func:`repro.core.unit.validate_tensorize`); ``FULL`` validates
    every candidate; ``OFF`` (the default) trusts the cost model.
    """

    def _validation_op(self, kind: str, params):
        raise NotImplementedError

    def _validator(self, kind: str, params):
        if self.validation is ValidationPolicy.OFF:
            return None

        def check(config) -> None:
            from .unit import tensorize

            op = self._validation_op(kind, params)
            tensorize(op, self.intrin, config=config, validate=True)

        return check

    def _precheck(self, kind: str, params):
        """The static-verification candidate gate (raise-to-reject).

        Only built when validation is on: it tensorizes the workload with
        each candidate configuration (no numeric execution) so the rewrite
        passes through :func:`repro.analysis.verify_rewrite` — a candidate
        whose bounds / tile-disjointness / dtype proofs fail is rejected
        before the cost model evaluates it, and counted in
        ``TuningResult.rejected``.
        """
        if self.validation is ValidationPolicy.OFF:
            return None

        def check(config) -> None:
            from .unit import tensorize

            op = self._validation_op(kind, params)
            tensorize(op, self.intrin, config=config, validate=False)

        return check

    def tuning_key(self, kind: str, params) -> TuningKey:
        """The identity this runner tunes ``(kind, params)`` under."""
        return TuningKey(
            kind=kind,
            params=params_fingerprint(params),
            intrinsic=self.intrin.name,
            machine=self.machine.name,
            space=self._space,
        )

    def _tuned(self, kind: str, params, evaluate) -> CostBreakdown:
        record = self.session.tune(
            self.tuning_key(kind, params),
            self._configs(),
            evaluate,
            oracle=self._validator(kind, params),
            precheck=self._precheck(kind, params),
            validation=self.validation,
        )
        if record.result is not None:
            self.tuning_results[(kind, params)] = record.result
        return record.breakdown


class UnitCpuRunner(_SessionTunedRunner):
    """UNIT-compiled operators on a CPU (x86 VNNI or ARM DOT).

    ``tuning`` selects how much of the schedule space is explored:
    ``"parallel"`` (only the fuse-and-parallelise step), ``"first_pair"``
    (parallel + unroll with the recommended pair), or ``"full"`` (search the
    tuning pairs, the paper's +Tune configuration).

    ``session`` is the shared tuning session; omit it for a private one.

    ``validation`` selects the :class:`~repro.tir.ValidationPolicy` for
    tuning-time functional checks (``SPOT`` validates the winning
    configuration of every fresh search bit-identically against the
    reference lowering before its record is cached; ``FULL`` validates every
    candidate; the default ``OFF`` trusts the cost model).
    """

    def __init__(
        self,
        machine: CpuSpec = CASCADE_LAKE,
        intrinsic_name: str = "x86.avx512.vpdpbusd",
        tuning: str = "full",
        candidates: Optional[Sequence[CpuTuningConfig]] = None,
        max_candidates: int = 16,
        session: Optional[TuningSession] = None,
        validation=None,
    ) -> None:
        if tuning not in ("parallel", "first_pair", "full"):
            raise ValueError("tuning must be 'parallel', 'first_pair' or 'full'")
        self.machine = machine
        self.intrin = get_intrinsic(intrinsic_name)
        self.model = CpuKernelModel(machine, self.intrin, per_call_overhead_us=0.8)
        self.tuning = tuning
        self.candidates = list(candidates) if candidates is not None else cpu_tuning_candidates(
            max_pairs=max_candidates
        )
        self.session = session if session is not None else TuningSession()
        self.validation = ValidationPolicy.coerce(validation, default=ValidationPolicy.OFF)
        self._space = space_fingerprint(tuning, self._configs())
        self.tuning_results: Dict[object, TuningResult] = {}

    # -- functional validation ---------------------------------------------
    def _validation_op(self, kind: str, params):
        from ..workloads.conv2d import conv2d_nchwc
        from ..workloads.conv3d import conv3d_ncdhwc
        from ..workloads.dense import dense_int8

        lanes = self.intrin.output_lanes
        reduction = self.intrin.reduction_width
        # The narrow (non-accumulator) register dtypes, in operand order:
        # (data, weight) for the dot-product instructions.
        narrow = [
            d.name
            for d in self.intrin.operand_dtypes
            if d.bits < self.intrin.output_dtype.bits
        ]
        in_dt, w_dt = (narrow[0], narrow[1]) if len(narrow) >= 2 else ("uint8", "int8")
        if kind == "conv2d":
            return conv2d_nchwc(
                params, lanes=lanes, reduction=reduction,
                in_dtype=in_dt, weight_dtype=w_dt,
            )
        if kind == "conv3d":
            return conv3d_ncdhwc(
                params, lanes=lanes, reduction=reduction,
                in_dtype=in_dt, weight_dtype=w_dt,
            )
        if kind == "dense":
            return dense_int8(
                params, lanes=lanes, reduction=reduction,
                in_dtype=in_dt, weight_dtype=w_dt,
            )
        raise ValueError(f"no validation workload for kind {kind!r}")

    # -- tuning ------------------------------------------------------------
    def _configs(self) -> List[CpuTuningConfig]:
        if self.tuning == "parallel":
            return [CpuTuningConfig(enable_unroll=False)]
        if self.tuning == "first_pair":
            return [CpuTuningConfig()]
        return self.candidates

    # -- operator latencies ---------------------------------------------------
    def conv2d_latency(self, params: Conv2DParams) -> CostBreakdown:
        return self._tuned("conv2d", params, lambda cfg: self.model.conv2d_latency(params, cfg))

    def conv3d_latency(self, params: Conv3DParams) -> CostBreakdown:
        return self._tuned("conv3d", params, lambda cfg: self.model.conv3d_latency(params, cfg))

    def dense_latency(self, params: DenseParams) -> CostBreakdown:
        return self._tuned("dense", params, lambda cfg: self.model.dense_latency(params, cfg))

    def depthwise_conv2d_latency(self, node: DepthwiseConv2DNode) -> CostBreakdown:
        # Depthwise convolutions have no channel reduction, so the tensorized
        # instruction does not apply; UNIT falls back to plain vector code.
        simd_macs_per_second = (
            self.machine.cores
            * self.machine.fma_ports
            * (self.machine.vector_bytes / 4)
            * self.machine.frequency_ghz
            * 1e9
            * 0.25
        )
        seconds = node.macs / simd_macs_per_second + 1.5e-6
        return CostBreakdown(seconds=seconds, compute_seconds=seconds)

    def elementwise_latency(self) -> CostBreakdown:
        # Elementwise operators are fused into their producers by the graph
        # pass; only a tiny residual dispatch cost remains for the unfused ones.
        return CostBreakdown(seconds=1.0e-6, overhead_seconds=1.0e-6)


class UnitGpuRunner(_SessionTunedRunner):
    """UNIT-compiled operators on the GPU (Tensor Core).

    ``mode`` mirrors the Figure 11 ablation: ``"generic"`` (p×p outer product
    only), ``"fusedim"`` (+ dimension fusion), ``"splitk"`` (+ reduction
    splitting with the fixed factor 64), or ``"tune"`` (search all three).
    """

    def __init__(
        self,
        machine: GpuSpec = V100,
        intrinsic_name: str = "nvvm.wmma.m16n16k16.mma.row.row.f32.f32",
        mode: str = "tune",
        session: Optional[TuningSession] = None,
        validation=None,
    ) -> None:
        if mode not in ("generic", "fusedim", "splitk", "tune"):
            raise ValueError("mode must be 'generic', 'fusedim', 'splitk' or 'tune'")
        self.machine = machine
        self.intrin = get_intrinsic(intrinsic_name)
        self.model = GpuKernelModel(machine, self.intrin)
        self.mode = mode
        self.session = session if session is not None else TuningSession()
        self.validation = ValidationPolicy.coerce(validation, default=ValidationPolicy.OFF)
        self._space = space_fingerprint(mode, self._configs())
        self.tuning_results: Dict[object, TuningResult] = {}

    def _validation_op(self, kind: str, params):
        from ..workloads.conv2d import conv2d_gemm
        from ..workloads.dense import matmul_fp16

        if kind == "conv2d":
            return conv2d_gemm(params)
        if kind == "dense":
            # Pad to the WMMA tile like the graph-level layout pass does.
            def pad16(n: int) -> int:
                return ((max(n, 1) + 15) // 16) * 16

            return matmul_fp16(
                pad16(params.batch),
                pad16(params.out_features),
                pad16(params.in_features),
                name=params.name,
            )
        raise ValueError(f"no validation workload for kind {kind!r}")

    def _configs(self) -> List[GpuTuningConfig]:
        if self.mode == "generic":
            return [GpuTuningConfig(outer_product_p=2)]
        if self.mode == "fusedim":
            return [GpuTuningConfig(outer_product_p=2, fuse_spatial=True)]
        if self.mode == "splitk":
            return [GpuTuningConfig(outer_product_p=2, fuse_spatial=True, split_k=64)]
        return gpu_tuning_candidates()

    def conv2d_latency(self, params: Conv2DParams) -> CostBreakdown:
        return self._tuned("conv2d", params, lambda cfg: self.model.conv2d_latency(params, cfg))

    def dense_latency(self, params: DenseParams) -> CostBreakdown:
        return self._tuned(
            "dense",
            params,
            lambda cfg: self.model.gemm_latency(
                params.batch, params.out_features, params.in_features, cfg
            ),
        )

    def depthwise_conv2d_latency(self, node: DepthwiseConv2DNode) -> CostBreakdown:
        simd_macs = self.machine.fp32_tflops * 1e12 / 2.0 * 0.2
        seconds = node.macs / simd_macs + self.machine.kernel_launch_us * 1e-6
        return CostBreakdown(seconds=seconds, compute_seconds=seconds)

    def elementwise_latency(self) -> CostBreakdown:
        return CostBreakdown(seconds=0.5e-6, overhead_seconds=0.5e-6)


def unit_runner(runner: str, machine: str, intrinsic: str, tuning: str, session=None):
    """The UNIT operator runner a (runner kind, machine name, intrinsic,
    tuning mode) quadruple names — the fields a :class:`Target` row and a
    :class:`~repro.rewriter.tasks.TuningTask` share."""
    spec = machine_by_name(machine)
    if runner == "cpu":
        return UnitCpuRunner(spec, intrinsic, tuning=tuning, session=session)
    if runner == "gpu":
        return UnitGpuRunner(spec, intrinsic, mode=tuning, session=session)
    raise ValueError(f"unknown runner kind {runner!r}")


def prepare_graph(graph: Graph, target: str, quantize: bool = True, fuse: bool = True) -> Graph:
    """The graph passes every compile for ``target`` starts with: quantize
    to the target's dtype, then fuse elementwise operators."""
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if quantize:
        graph = quantize_graph(graph, TARGETS[target].dtype)
    if fuse:
        graph = fuse_elementwise(graph)
    return graph


def compile_model(
    graph: Graph,
    target: str = "x86",
    runner=None,
    quantize: bool = True,
    fuse: bool = True,
    session: Optional[TuningSession] = None,
) -> CompiledModel:
    """Compile a model end to end for ``target`` and estimate its latency.

    ``target`` is one of :data:`TARGETS` (``"x86"``, ``"arm"``, ``"cuda"``);
    ``runner`` may be supplied to estimate latency under a baseline library
    instead of UNIT (e.g.
    :class:`~repro.baselines.frameworks.MxnetOneDnnRunner`).

    ``session`` says where tuning happens and where its records live; it is
    forwarded to the default UNIT runner and ignored when an explicit
    ``runner`` is supplied (construct that runner with the session instead).
    A plain ``TuningSession()`` shares one in-memory cache across compiles;
    ``TuningSession(store=path)`` additionally reads records other processes
    published and publishes its own fresh searches for them;
    ``RemoteSession(address, fallback_store=path)`` tunes against a
    :class:`~repro.service.server.TuningService` daemon (memory -> server ->
    miss, searches run server-side and coalesced with every other client).
    """
    work = prepare_graph(graph, target, quantize, fuse)
    row = TARGETS[target]
    if runner is None:
        runner = unit_runner(row.runner, row.machine, row.intrinsic, row.tuning, session)
    if row.runner == "cpu":
        # The blocked NCHW[x]c layout follows the instruction's register shape.
        intrin = get_intrinsic(row.intrinsic)
        layout = plan_layout(work, lanes=intrin.output_lanes, reduction=intrin.reduction_width)
    else:
        layout = {}
    report = estimate_graph_latency(work, runner)
    return CompiledModel(
        name=graph.name, target=target, graph=work, report=report, layout_decisions=layout
    )


def compile_model_batch(
    models: Iterable[Union[str, Graph]],
    targets: Sequence[str] = ("x86",),
    session: Optional[TuningSession] = None,
    quantize: bool = True,
    fuse: bool = True,
) -> List[CompiledModel]:
    """Compile many models for many targets through one shared tuning session.

    ``models`` may mix model-zoo names and pre-built :class:`Graph` objects;
    either way one graph is built per model and reused across targets (the
    graph passes return target-specialised copies).  Layers repeated across
    models and models repeated across calls hit the shared cache instead of
    re-tuning, which is what makes sweeping the model zoo cheap.  Returns one
    :class:`CompiledModel` per (model, target) pair, model-major.
    """
    if session is None:
        session = TuningSession()
    from ..models.zoo import get_model

    graphs = [
        get_model(model, fresh=True) if isinstance(model, str) else model
        for model in models
    ]
    compiled: List[CompiledModel] = []
    for graph in graphs:
        for target in targets:
            compiled.append(
                compile_model(
                    graph,
                    target=target,
                    quantize=quantize,
                    fuse=fuse,
                    session=session,
                )
            )
    return compiled
