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
exactly once, with results optionally persisted to disk between processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..baselines.frameworks import MxnetOneDnnRunner, TvmCudnnRunner
from ..graph.executor import GraphLatencyReport, estimate_graph_latency
from ..graph.fuse import fuse_elementwise
from ..graph.ir import DepthwiseConv2DNode, Graph
from ..graph.layout import plan_layout
from ..graph.quantize import quantize_graph
from ..hwsim.cost import CostBreakdown
from ..hwsim.cpu import CpuKernelModel
from ..hwsim.gpu import GpuKernelModel
from ..hwsim.machine import CASCADE_LAKE, GRAVITON2, V100, CpuSpec, GpuSpec
from ..isa.registry import get_intrinsic
from ..rewriter.cpu_tuner import CpuTuningConfig, cpu_tuning_candidates
from ..rewriter.gpu_tuner import GpuTuningConfig, gpu_tuning_candidates
from ..rewriter.records import TuningKey, params_fingerprint, space_fingerprint
from ..rewriter.session import TuningSession
from ..rewriter.store import ShardedTuningStore
from ..rewriter.tuner import TuningResult
from ..tir.executor import ValidationPolicy
from ..workloads.conv2d import Conv2DParams
from ..workloads.conv3d import Conv3DParams
from ..workloads.dense import DenseParams

__all__ = [
    "UnitCpuRunner",
    "UnitGpuRunner",
    "CompiledModel",
    "compile_model",
    "compile_model_batch",
]


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

    def run(self, inputs, weights=None, rng=None, keep=(), executor=None):
        """Execute the compiled graph numerically, end to end.

        Runs the (quantized, fused) graph through the memory-planned,
        plan-cached whole-model executor
        (:func:`repro.graph.executor.run_model`): activations share one
        liveness-planned arena and every operator executes through the
        process-wide executable-plan cache, so repeated layer shapes compile
        once.  Pass a :class:`repro.tir.Executor` via ``executor`` to select
        the execution tier and validation policy.  Returns a
        :class:`~repro.graph.executor.ModelRun`.
        """
        from ..graph.executor import run_model

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

    def _tuned(self, kind: str, params, evaluate) -> CostBreakdown:
        key = TuningKey(
            kind=kind,
            params=params_fingerprint(params),
            intrinsic=self.intrin.name,
            machine=self.machine.name,
            space=self._space,
        )
        record = self.session.tune(
            key,
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


def compile_model(
    graph: Graph,
    target: str = "x86",
    runner=None,
    quantize: bool = True,
    fuse: bool = True,
    session: Optional[TuningSession] = None,
    store=None,
    remote=None,
) -> CompiledModel:
    """Compile a model end to end for ``target`` and estimate its latency.

    ``target`` is one of ``"x86"``, ``"arm"``, ``"cuda"``; ``runner`` may be
    supplied to estimate latency under a baseline library instead of UNIT
    (e.g. :class:`~repro.baselines.frameworks.MxnetOneDnnRunner`).

    ``session`` is forwarded to the default UNIT runner so repeated
    compilations share one tuning cache; it is ignored when an explicit
    ``runner`` is supplied (construct that runner with the session instead).

    ``store`` backs the default session with a
    :class:`~repro.rewriter.store.ShardedTuningStore`, so this compile reads
    records other processes published (e.g. a distributed pre-tuning pass)
    and publishes its own fresh searches for them.

    ``remote`` points the compile at a tuning daemon instead: a
    ``(host, port)`` pair or ``"host:port"`` string naming a
    :class:`~repro.service.server.TuningService`.  Tuning then reads through
    memory -> server -> miss (searches are run server-side, coalesced with
    every other client), and a ``store`` given alongside serves as the local
    fallback while the daemon is unreachable.
    """
    if target not in ("x86", "arm", "cuda"):
        raise ValueError(f"unknown target {target!r}")
    if runner is not None and store is not None:
        raise ValueError(
            "store= only applies to the default UNIT runner; construct the "
            "explicit runner with a store-backed session instead"
        )
    session = _resolve_session(session, store, remote)
    work = graph
    if quantize:
        work = quantize_graph(work, "float16" if target == "cuda" else "int8")
    if fuse:
        work = fuse_elementwise(work)
    if runner is None:
        if target == "x86":
            runner = UnitCpuRunner(CASCADE_LAKE, "x86.avx512.vpdpbusd", session=session)
        elif target == "arm":
            runner = UnitCpuRunner(GRAVITON2, "arm.neon.sdot", session=session)
        else:
            runner = UnitGpuRunner(V100, session=session)
    lanes = 4 if target == "arm" else 16
    layout = plan_layout(work, lanes=lanes, reduction=4) if target != "cuda" else {}
    report = estimate_graph_latency(work, runner)
    return CompiledModel(
        name=graph.name, target=target, graph=work, report=report, layout_decisions=layout
    )


def _resolve_session(
    session: Optional[TuningSession], store, remote=None
) -> Optional[TuningSession]:
    """Combine the ``session=``, ``store=`` and ``remote=`` conveniences.

    ``store`` may be a :class:`ShardedTuningStore` or a path to one (the same
    coercion :class:`~repro.rewriter.workers.DistributedTuner` applies), so
    the mistake surfaces at the API boundary rather than mid-compile.

    ``remote`` is a tuning-daemon address — ``(host, port)`` or
    ``"host:port"`` — and yields a
    :class:`~repro.service.client.RemoteSession`; a ``store`` given
    alongside becomes its offline fallback.  ``remote`` and ``session`` are
    mutually exclusive (a session already encodes where tuning happens).
    """
    if remote is not None:
        if session is not None:
            raise ValueError(
                "pass either remote= or session= (construct a RemoteSession "
                "yourself to customise it), not both"
            )
        from ..service.client import RemoteSession

        if isinstance(remote, str):
            host, _, port = remote.rpartition(":")
            remote = (host or "127.0.0.1", int(port))
        return RemoteSession(remote, fallback_store=store)
    if store is not None and not isinstance(store, ShardedTuningStore):
        store = ShardedTuningStore(store)
    if session is not None:
        if store is not None and session.store is not store:
            raise ValueError(
                "pass either store= or a session constructed with that store, "
                "not a session bound elsewhere"
            )
        return session
    if store is not None:
        return TuningSession(store=store)
    return None


def compile_model_batch(
    models: Iterable[Union[str, Graph]],
    targets: Sequence[str] = ("x86",),
    session: Optional[TuningSession] = None,
    quantize: bool = True,
    fuse: bool = True,
    store=None,
    workers: Optional[int] = None,
    remote=None,
) -> List[CompiledModel]:
    """Compile many models for many targets through one shared tuning session.

    ``models`` may mix model-zoo names and pre-built :class:`Graph` objects;
    either way one graph is built per model and reused across targets (the
    graph passes return target-specialised copies).  Layers repeated across
    models and models repeated across calls hit the shared cache instead of
    re-tuning, which is what makes sweeping the model zoo cheap.  Returns one
    :class:`CompiledModel` per (model, target) pair, model-major.

    ``store`` backs the batch's session with a sharded on-disk store, and
    ``workers > 1`` additionally *pre-tunes* through it in parallel: every
    distinct tunable operator across the whole (model x target) sweep is
    collected, fanned out over that many worker processes
    (:class:`~repro.rewriter.workers.DistributedTuner`), and published into
    the store; the subsequent per-model compiles then run entirely against
    warm records.  Results are bit-identical to the single-process path —
    workers search with the result-deterministic parallel driver.

    ``remote`` points the whole batch at a tuning daemon instead (see
    :func:`compile_model`); the daemon replaces local pre-tuning, so it is
    mutually exclusive with ``workers > 1`` — server-side coalescing already
    ensures each distinct operator is searched once for the whole fleet.
    """
    if remote is not None and workers is not None and workers > 1:
        raise ValueError(
            "workers > 1 spawns local pre-tuning processes, which is "
            "redundant against remote=: the daemon already coalesces and "
            "speculatively pre-tunes; drop workers= or remote="
        )
    session = _resolve_session(session, store, remote)
    if session is None:
        session = TuningSession()
    from ..models.zoo import get_model

    graphs = [
        get_model(model, fresh=True) if isinstance(model, str) else model
        for model in models
    ]
    if workers is not None and workers > 1:
        if session.store is None:
            raise ValueError(
                "workers > 1 requires a sharded store (pass store= or a "
                "store-backed session) so worker processes can share records"
            )
        from ..rewriter.records import params_fingerprint
        from ..rewriter.workers import DistributedTuner, tasks_from_graph

        tasks, seen = [], set()
        for graph in graphs:
            for target in targets:
                for task in tasks_from_graph(
                    graph, target=target, quantize=quantize, fuse=fuse
                ):
                    identity = (
                        task.kind,
                        params_fingerprint(task.params),
                        task.runner,
                        task.machine,
                        task.intrinsic,
                        task.tuning,
                    )
                    if identity not in seen:
                        seen.add(identity)
                        tasks.append(task)
        if tasks:
            # The workers must search exactly as this session would: a
            # strategy mismatch would publish records under keys the
            # session's lookups (see TuningSession._record_key) never hit.
            DistributedTuner(
                session.store,
                workers=workers,
                strategy=session.strategy,
                max_workers=session.max_workers,
                early_exit_k=session.early_exit_k,
            ).run(tasks)

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
