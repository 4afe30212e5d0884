"""Compile-side sections: single operators and whole models.  No kernel runs.

``OperatorCompile`` sweeps 48 operators (the 16 Table I layers x VNNI on
NCHW16c, ``arm.neon.sdot`` on NCHW4c int8, WMMA on implicit GEMM) through
``tensorize`` -> ``analyze`` -> ``compile_plan``.  ``ModelCompile`` sweeps the
nine zoo models x three targets through ``compile_model``, first with a
fresh ``TuningSession`` per target (every distinct layer is searched) and
then with the same sessions (every lookup is a cache hit): search and
cache hit are one layer used two ways.

Both have a *staged walk* for traced runs: the same pipeline spelled out
stage by stage through the public stage functions, each stage in a span, so
per-stage self time can be summed and compared with the untraced call.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

from repro.analysis import analyze
from repro.baselines.frameworks import MxnetOneDnnRunner
from repro.core import UnitCpuRunner, UnitGpuRunner, compile_model, tensorize
from repro.dsl.expr import expr_cache_stats, reset_expr_cache_stats
from repro.graph import estimate_graph_latency, fuse_elementwise, plan_layout, quantize_graph
from repro.hwsim.cost import geometric_mean
from repro.hwsim.cpu import CpuKernelModel
from repro.hwsim.machine import CASCADE_LAKE, GRAVITON2, V100
from repro.inspector import inspect_applicability
from repro.isa.registry import get_intrinsic, list_intrinsics
from repro.models.zoo import EVALUATED_MODELS, get_model
from repro.rewriter import (
    CpuTuningConfig,
    GpuTuningConfig,
    TuningSession,
    apply_cpu_schedule,
    apply_gpu_schedule,
    cpu_tuning_candidates,
    replace_tensorize,
    reorganize_loops,
)
from repro.tir import compile_plan, count_nodes, func_structural_equal, lower, verify
from repro.workloads import conv2d_gemm, conv2d_nchwc
from repro.workloads.table1 import TABLE1_LAYERS

from .harness import Context, Section
from .spans import null_span

VNNI = "x86.avx512.vpdpbusd"
SDOT = "arm.neon.sdot"
WMMA = "nvvm.wmma.m16n16k16.mma.row.row.f32.f32"
TARGETS = ("x86", "arm", "cuda")

Operator = Tuple[str, Callable[[], object], str]  # label, tree builder, intrinsic


def operators() -> List[Operator]:
    """The 48 operators, in canonical (layer-major) order."""
    out: List[Operator] = []
    for index, params in enumerate(TABLE1_LAYERS, start=1):
        out.append((f"L{index}.vnni", lambda p=params: conv2d_nchwc(p, lanes=16, reduction=4), VNNI))
        out.append(
            (
                f"L{index}.sdot",
                lambda p=params: conv2d_nchwc(
                    p, lanes=4, reduction=4, in_dtype="int8", weight_dtype="int8"
                ),
                SDOT,
            )
        )
        out.append((f"L{index}.wmma", lambda p=params: conv2d_gemm(p), WMMA))
    return out


Compiled = Tuple[object, int, object, object]  # PrimFunc, feasible mappings, report, plan


def compile_operator(tensor, intrinsic: str) -> Compiled:
    """The untraced unit: one operator through the whole compile side."""
    result = tensorize(tensor, intrinsic)
    return result.func, result.num_feasible_mappings, analyze(result.func), compile_plan(result.func)


def staged_operator(span, build: Callable[[], object], intrinsic: str) -> Compiled:
    """``compile_operator`` stage by stage, mirroring ``repro.core.tensorize``.

    ``span`` is ``Context.span`` on traced runs and ``null_span`` otherwise.
    """
    with span("dsl.build"):
        tensor = build()
    intrin = get_intrinsic(intrinsic)
    with span("inspector.inspect"):
        inspection = inspect_applicability(tensor.op, intrin)
    with span("rewriter.reorg"):
        spec = reorganize_loops(inspection, mapping=inspection.mappings[0])
    with span("rewriter.schedule"):
        if intrin.target == "cuda":
            apply_gpu_schedule(spec, GpuTuningConfig())
        else:
            apply_cpu_schedule(spec, CpuTuningConfig())
    with span("tir.lower"):
        func = lower(spec.schedule)
    with span("rewriter.replace"):
        func = replace_tensorize(func, spec, verify=True)
    with span("tir.verify"):
        verify(func)
    with span("analysis.analyze"):
        report = analyze(func)
    with span("tir.compile_plan"):
        plan = compile_plan(func)
    return func, len(inspection.mappings), report, plan


OP_STAGES = {
    "dsl.build": "dsl.build_ms",
    "inspector.inspect": "inspector.inspect_ms",
    "rewriter.reorg": "rewriter.reorg_ms",
    "rewriter.schedule": "rewriter.schedule_ms",
    "tir.lower": "tir.lower_ms",
    "rewriter.replace": "rewriter.replace_ms",
    "tir.verify": "tir.verify_ms",
    "analysis.analyze": "analysis.analyze_ms",
    "tir.compile_plan": "tir.compile_plan_ms",
}

CHUNK = 8  # operators per timed unit: ~50 ms of work between calibration samples


@contextmanager
def collector_paused() -> Iterator[None]:
    """No cyclic-collector pass inside the block (one full pass before it).

    When a pass runs depends on how many objects the process already holds.
    While counting calls, the finalisers and weakref callbacks it triggers are
    calls too (the count moved by 0.8 % with it on); while a staged walk
    alternates with the plain call, a 20-40 ms pass lands in one of the two
    and in one stage's span, which is neither's time.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def profiled_calls(fn: Callable[[], object]) -> int:
    """Python + C calls ``fn`` makes, counted by ``cProfile``."""
    profile = cProfile.Profile()
    with collector_paused():
        profile.runcall(fn)
    return pstats.Stats(profile).total_calls


class OperatorCompile(Section):
    family = "compile"

    def setup(self, ctx: Context) -> None:
        self.ops = operators()
        # The staged walk doubles as the independent reference every timed
        # tensorize is checked against, and as the warm-up of the compile side.
        self.reference: Dict[str, object] = {}
        for label, build, intrinsic in self.ops:
            self.reference[label] = staged_operator(null_span, build, intrinsic)[0]
        # Counted before anything seeded has run and after the walk above has
        # triggered every lazy import, so the count is the same on every run.
        ctx.set(
            "op_compile_kcalls",
            profiled_calls(lambda: [compile_operator(build(), intr) for _, build, intr in self.ops])
            / 1e3,
        )
        ctx.set(
            "compile_kcalls",
            ctx.rows["op_compile_kcalls"].value + ctx.rows["model_compile_kcalls"].value,
        )
        order = ctx.rng("operator-order").permutation(len(self.ops))  # seeded work starts here
        self.order = [self.ops[i] for i in order]
        if ctx.extras(self.family):
            self.warm_trees = [(label, build(), intrinsic) for label, build, intrinsic in self.order]
        self.last: Dict[str, Compiled] = {}

    def _sweep(self, ctx: Context, items, variants):
        """Run ``items`` in chunks, every ``(key, compile_one)`` variant on each
        chunk in turn; returns one ``[raw s, normalised s]`` per variant."""
        totals = [[0.0, 0.0] for _ in variants]
        for start in range(0, len(items), CHUNK):
            chunk = items[start : start + CHUNK]
            for total, (key, compile_one) in zip(totals, variants):

                def unit(chunk=chunk, compile_one=compile_one):
                    return [compile_one(item) for item in chunk]

                try:
                    results, sample = ctx.clock.timed(key, unit)
                except Exception as exc:  # a compile failure fails its whole chunk
                    for label, _, _ in chunk:
                        ctx.check(False, f"{key} {label}: {type(exc).__name__}: {exc}")
                    continue
                total[0] += sample.raw
                total[1] += sample.norm
                for (label, _, _), produced in zip(chunk, results):
                    ctx.check(
                        func_structural_equal(self.reference[label], produced[0]),
                        f"{key} {label}: PrimFunc differs from the staged walk's",
                    )
                    self.last[label] = produced
        return totals

    def round(self, ctx: Context) -> None:
        count = len(self.order)
        def compile_fresh(item):
            return compile_operator(item[1](), item[2])

        reset_expr_cache_stats()
        ((raw, norm),) = self._sweep(ctx, self.order, [("op.cold", compile_fresh)])
        ctx.add("op_compile_ms", norm / count * 1e3)
        ctx.add("op_compile_ms.raw", raw / count * 1e3)
        if not ctx.extras(self.family):
            return
        stats = expr_cache_stats()
        lookups = stats.simplify_hits + stats.simplify_misses + stats.linear_hits + stats.linear_misses
        ctx.add(
            "dsl.expr_cache_hit_rate",
            (stats.simplify_hits + stats.linear_hits) / lookups if lookups else 0.0,
        )
        ((_, warm),) = self._sweep(
            ctx, self.warm_trees, [("op.warm", lambda item: compile_operator(item[1], item[2]))]
        )
        ctx.add("op_compile_warm_ms", warm / count * 1e3)
        if ctx.recorder is None:
            return
        # The staged walk alternates with the plain unit chunk by chunk: the two
        # see the same machine speed and the same cache and heap state, which a
        # sweep of its own elsewhere in the round does not (16 % apart, raw).
        mark = ctx.recorder.mark()
        with collector_paused():
            (plain_raw, _), (staged_raw, staged_norm) = self._sweep(
                ctx,
                self.order,
                [
                    ("op.paired", compile_fresh),
                    ("op.staged", lambda item: staged_operator(ctx.span, item[1], item[2])),
                ],
            )
        scale = staged_norm / staged_raw  # span times are raw
        self_times = ctx.recorder.self_times(mark)
        for span_name, metric in OP_STAGES.items():
            ctx.add(metric, self_times.get(span_name, 0.0) * scale / count * 1e3)
        ctx.add("op_compile.stage_sum_share", sum(self_times[s] for s in OP_STAGES) / plain_raw)
        ctx.traced_vs_plain(staged_raw, plain_raw)

    def finish(self, ctx: Context) -> None:
        if not ctx.extras(self.family):
            return
        funcs, mappings, reports, plans = zip(*(self.last[label] for label, _, _ in self.ops))
        ctx.set("inspector.mappings_total", sum(mappings))
        ctx.set("tir.ir_nodes_total", sum(count_nodes(f.body) for f in funcs))
        ctx.set(
            "analysis.proved_nest_share",
            sum(r.proved_nests for r in reports) / max(1, sum(r.total_nests for r in reports)),
        )
        ctx.set("tir.elided_checks_total", sum(p.stats.elided_checks for p in plans))
        ctx.set("tir.fallback_nests_total", sum(p.fallback_nests for p in plans))
        # The applicability matrix: every registered instruction against
        # every operator (warm trees, so this is inspection cost only).
        matrix = [
            inspect_applicability(tensor.op, get_intrinsic(name))
            for _, tensor, _ in self.warm_trees
            for name in list_intrinsics()
        ]
        ctx.set("inspector.applicable_share", sum(r.applicable for r in matrix) / len(matrix))


# -- whole models ---------------------------------------------------------------


class _CountingSession(TuningSession):
    """A session that puts a span around every ``tune`` and names it by
    whether the call searched or hit the cache."""

    def __init__(self, ctx: Context) -> None:
        super().__init__()
        self._ctx = ctx

    def tune(self, key, candidates, evaluate, *args, **kwargs):
        recorder = self._ctx.recorder
        if recorder is None:
            return super().tune(key, candidates, evaluate, *args, **kwargs)
        before = self.searches_run
        with recorder.span("tuner.hit") as record:
            result = super().tune(key, candidates, evaluate, *args, **kwargs)
            if self.searches_run != before:
                record["name"] = "tuner.search"
        return result


def staged_compile_model(ctx: Context, graph, target: str, session: TuningSession):
    """``compile_model`` stage by stage, mirroring ``repro.core.pipeline``."""
    with ctx.span("graph.quantize"):
        work = quantize_graph(graph, "float16" if target == "cuda" else "int8")
    with ctx.span("graph.fuse"):
        work = fuse_elementwise(work)
    with ctx.span("pipeline.runner"):
        if target == "x86":
            runner = UnitCpuRunner(CASCADE_LAKE, VNNI, session=session)
        elif target == "arm":
            runner = UnitCpuRunner(GRAVITON2, SDOT, session=session)
        else:
            runner = UnitGpuRunner(V100, session=session)
    with ctx.span("graph.layout"):
        if target != "cuda":
            plan_layout(work, lanes=4 if target == "arm" else 16, reduction=4)
    with ctx.span("graph.estimate"):
        report = estimate_graph_latency(work, runner)
    return report.total_milliseconds


MODEL_STAGES = {
    "graph.quantize": "graph.quantize_ms",
    "graph.fuse": "graph.fuse_ms",
    "graph.layout": "graph.layout_ms",
    "graph.estimate": "graph.estimate_ms",
    "tuner.search": "tuner.search_ms",
}
MODEL_CHUNK = 5  # model x target compiles per timed unit (~10 ms each)


class ModelCompile(Section):
    family = "compile"

    def setup(self, ctx: Context) -> None:
        self.graphs = {name: get_model(name) for name in EVALUATED_MODELS}
        self.pairs = len(TARGETS) * len(EVALUATED_MODELS)
        # The expected answers: hwsim is deterministic, so every later compile
        # must reproduce these latencies exactly.
        self.expected: Dict[Tuple[str, str], float] = {}
        self.searches: Dict[str, int] = {}
        self.trials: Dict[str, int] = {}

        def fresh_zoo() -> None:
            for target in TARGETS:
                session = TuningSession()
                for name in EVALUATED_MODELS:
                    self.expected[(name, target)] = compile_model(
                        self.graphs[name], target=target, session=session
                    ).latency_ms
                self.searches[target] = session.searches_run
                self.trials[target] = session.trials_run

        fresh_zoo()
        ctx.set("model_compile_kcalls", profiled_calls(fresh_zoo) / 1e3)
        library = MxnetOneDnnRunner(session=TuningSession())
        ctx.set(
            "predicted_speedup_vs_onednn",
            geometric_mean(
                compile_model(self.graphs[name], target="x86", runner=library).latency_ms
                / self.expected[(name, "x86")]
                for name in EVALUATED_MODELS
            ),
        )
        rng = ctx.rng("model-order")  # seeded work starts here, after the counting
        self.order = [
            (target, [EVALUATED_MODELS[i] for i in rng.permutation(len(EVALUATED_MODELS))])
            for target in TARGETS
        ]
        self.eval_model = CpuKernelModel(CASCADE_LAKE, get_intrinsic(VNNI), per_call_overhead_us=0.8)
        self.eval_configs = cpu_tuning_candidates(max_pairs=16)

    def _sweep(self, ctx: Context, variants):
        """Run the 27 pairs in chunks, every ``(key, compile_one, sessions)``
        variant on each chunk in turn; returns ``[raw s, normalised s]`` per variant."""
        totals = [[0.0, 0.0] for _ in variants]
        for target, names in self.order:
            for start in range(0, len(names), MODEL_CHUNK):
                chunk = names[start : start + MODEL_CHUNK]
                for total, (key, compile_one, sessions) in zip(totals, variants):

                    def unit(chunk=chunk, compile_one=compile_one, session=sessions[target]):
                        return [compile_one(self.graphs[name], target, session) for name in chunk]

                    try:
                        latencies, sample = ctx.clock.timed(key, unit)
                    except Exception as exc:
                        for name in chunk:
                            ctx.check(False, f"{key} {name}/{target}: {type(exc).__name__}: {exc}")
                        continue
                    total[0] += sample.raw
                    total[1] += sample.norm
                    for name, latency in zip(chunk, latencies):
                        ctx.check(
                            latency == self.expected[(name, target)],
                            f"{key} {name}/{target}: predicted latency {latency!r} is not "
                            f"{self.expected[(name, target)]!r}",
                        )
        return totals

    @staticmethod
    def _plain(graph, target, session) -> float:
        return compile_model(graph, target=target, session=session).latency_ms

    def _check_searches(self, ctx: Context, sessions: Dict[str, TuningSession], key: str) -> None:
        for target, session in sessions.items():
            ctx.check(
                session.searches_run == self.searches[target]
                and session.trials_run == self.trials[target],
                f"{key} {target}: {session.searches_run} searches / {session.trials_run} "
                f"trials, expected {self.searches[target]} / {self.trials[target]}",
            )

    def round(self, ctx: Context) -> None:
        sessions = {target: TuningSession() for target in TARGETS}
        ((raw, norm),) = self._sweep(ctx, [("model.fresh", self._plain, sessions)])
        ctx.add("model_compile_ms", norm / self.pairs * 1e3)
        ctx.add("model_compile_ms.raw", raw / self.pairs * 1e3)
        self._check_searches(ctx, sessions, "model.fresh")
        if not ctx.extras(self.family):
            return
        ((_, warm),) = self._sweep(ctx, [("model.warm", self._plain, sessions)])
        ctx.add("model_recompile_ms", warm / self.pairs * 1e3)
        hits = sum(s.stats.hits for s in sessions.values())
        misses = sum(s.stats.misses for s in sessions.values())
        ctx.add("tuner.cache_hit_rate", hits / (hits + misses))
        self._check_searches(ctx, sessions, "model.warm")  # a warm session must not search again

        def evaluate_all():
            for params in TABLE1_LAYERS:
                for config in self.eval_configs:
                    self.eval_model.conv2d_latency(params, config)

        _, sample = ctx.clock.timed("hwsim.eval", evaluate_all)
        ctx.add("hwsim.eval_us", sample.norm / (len(TABLE1_LAYERS) * len(self.eval_configs)) * 1e6)
        if ctx.recorder is None:
            return
        # Chunk by chunk next to a plain compile, like the operator walk.
        mark = ctx.recorder.mark()
        paired = {target: TuningSession() for target in TARGETS}
        staged = {target: _CountingSession(ctx) for target in TARGETS}
        with collector_paused():
            (plain_raw, _), (staged_raw, staged_norm) = self._sweep(
                ctx,
                [
                    ("model.paired", self._plain, paired),
                    (
                        "model.staged",
                        lambda graph, target, session: staged_compile_model(ctx, graph, target, session),
                        staged,
                    ),
                ],
            )
        self._check_searches(ctx, staged, "model.staged")
        scale = staged_norm / staged_raw  # span times are raw
        self_times = ctx.recorder.self_times(mark)
        for span_name, metric in MODEL_STAGES.items():
            ctx.add(metric, self_times.get(span_name, 0.0) * scale / self.pairs * 1e3)
        ctx.add("model_compile.stage_sum_share", sum(self_times.values()) / plain_raw)
        ctx.traced_vs_plain(staged_raw, plain_raw)

    def finish(self, ctx: Context) -> None:
        if not ctx.extras(self.family):
            return
        ctx.set("tuner.searches_total", sum(self.searches.values()))
        ctx.set("tuner.trials_total", sum(self.trials.values()))
        ctx.set("predicted_ms_geomean", geometric_mean(self.expected.values()))
        for target in TARGETS:
            ctx.set(
                f"predicted_ms_geomean.{target}",
                geometric_mean(v for (_, t), v in self.expected.items() if t == target),
            )
