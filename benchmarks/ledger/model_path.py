"""The whole-graph path: ``CompiledModel.run`` on x86-compiled zoo models.

``resnet-18`` (28 nodes, kernel-bound) and ``mobilenet-v2`` (59 nodes,
depthwise, dispatch-bound) at 32x32 separate kernel gains from dispatch /
fusion gains.  Set-up is the *cold* measurement: from a fresh ``Executor``
and no cached plans, runs 1-3 are plan compile, a vectorized run and native
promotion (codegen, cc, sandbox qualification) — a chain whose slowest link
decides what a kernel cache could save.  The window then times steady runs.

Every timed run's pre-softmax activations must equal, bit for bit, those of
an untimed ``execute_graph`` (unplanned memory, vectorized tier) at set-up.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.codegen.lowlevel import generate_c
from repro.core import compile_model
from repro.graph import execute_graph, plan_memory, rescale_input
from repro.graph.ir import Conv2DNode, DenseNode, DepthwiseConv2DNode, InputNode, SoftmaxNode
from repro.models.zoo import get_model
from repro.rewriter import TuningSession
from repro.tir import Executor, compile_native
from repro.tir import sandbox

from .checks import same_bits
from .harness import Context, Section
from .machine import Sample

INPUT_HW = 32
MAX_WARM_RUNS = 6
STEADY_RUNS = 8  # model runs per timed unit (~0.25 s): every section gets a like share of a round
PROBED_KERNELS = 3  # distinct kernels timed through codegen / cc / sandbox at finish


def build_weights(graph, rng) -> Dict[str, np.ndarray]:
    """Parameters for every node that has any, in the shapes ``run_model`` expects."""
    graph.infer_shapes()
    weights: Dict[str, np.ndarray] = {}
    for node in graph.nodes:
        if isinstance(node, Conv2DNode):
            channels = graph.output_shape(node.inputs[0]).channels
            shape = (node.out_channels, channels // node.groups, node.kernel, node.kernel)
        elif isinstance(node, DepthwiseConv2DNode):
            shape = (graph.output_shape(node.inputs[0]).channels, node.kernel, node.kernel)
        elif isinstance(node, DenseNode):
            shape = (node.out_features, graph.output_shape(node.inputs[0]).elements)
        else:
            continue
        weights[node.name] = (rng.standard_normal(shape) * 0.1).astype(np.float32)
    return weights


class SpanExecutor(Executor):
    """An ``Executor`` that puts a span around every ``run`` and remembers
    the first few kernels it ran.

    The timing wrapper of traced runs: kernel time is the self time of these
    spans, dispatch time the self time of the model-run span around them.
    """

    def __init__(self, span) -> None:
        super().__init__()
        self._span = span
        self.calls = 0
        self.seen: Dict[int, tuple] = {}  # id(func) -> (func, arrays before, result)

    def run(self, func, buffers, stats=None):
        probe = id(func) not in self.seen and len(self.seen) < PROBED_KERNELS
        before = [np.array(buffers[t], copy=True) for t in func.params] if probe else None
        with self._span("tir.executor_run"):
            result = super().run(func, buffers, stats=stats)
        self.calls += 1
        if probe:
            self.seen[id(func)] = (func, before, np.array(result, copy=True))
        return result


class _Model:
    def __init__(self, ctx: Context, name: str) -> None:
        self.name = name
        self.tag = name.replace("-", "")
        graph = rescale_input(get_model(name, fresh=True), INPUT_HW)
        self.compiled = compile_model(graph, target="x86", session=TuningSession())
        graph = self.compiled.graph
        rng = ctx.rng(f"model-{name}")
        self.weights = build_weights(graph, rng)
        entry = next(n for n in graph.nodes if isinstance(n, InputNode))
        self.inputs = {
            entry.name: rng.standard_normal(
                (entry.shape.channels, INPUT_HW, INPUT_HW)
            ).astype(np.float32)
        }
        self.kept = next(n for n in graph.nodes if isinstance(n, SoftmaxNode)).inputs[0]
        self.expected = execute_graph(graph, self.inputs, weights=self.weights)[self.kept]
        self.executor = Executor()

    def run(self, executor: Optional[Executor] = None):
        return self.compiled.run(
            self.inputs, weights=self.weights, keep=[self.kept], executor=executor or self.executor
        )

    def checked(self, ctx: Context, run, what: str) -> None:
        ctx.check(
            same_bits(run.outputs[self.kept], self.expected),
            f"{self.name} {what}: pre-softmax activations differ from execute_graph's",
        )

    def warm_up(self, ctx: Context) -> List[float]:
        """Run from cold until no run promotes any more; returns normalised
        seconds per run (runs 1-3 are the cold path)."""
        seconds: List[float] = []
        while len(seconds) < MAX_WARM_RUNS:
            promoted = self.executor.stats.native_promotions
            run, sample = ctx.clock.timed(f"{self.tag}.cold", self.run)
            self.checked(ctx, run, f"cold run {len(seconds) + 1}")
            seconds.append(sample.norm)
            if len(seconds) >= 3 and self.executor.stats.native_promotions == promoted:
                break
        return seconds


class Models(Section):
    family = "model_run"

    def setup(self, ctx: Context) -> None:
        self.resnet = _Model(ctx, "resnet-18")
        cold = self.resnet.warm_up(ctx)
        ctx.set("model_first_run_s", cold[0])
        ctx.set("model_promote_run_s", cold[2])
        ctx.set("model_warmup_s", sum(cold[:3]))
        ctx.set("native.promotions_total", self.resnet.executor.stats.native_promotions)
        self.models = [self.resnet]
        if ctx.extras(self.family):
            self.mobilenet = _Model(ctx, "mobilenet-v2")
            self.mobilenet.warm_up(ctx)
            self.models.append(self.mobilenet)
        if ctx.trace:
            self.wrapped = SpanExecutor(ctx.span)

    def round(self, ctx: Context) -> None:
        for model in self.models:
            runs, sample = ctx.clock.timed(
                f"{model.tag}.steady", lambda model=model: [model.run() for _ in range(STEADY_RUNS)]
            )
            for run in runs:
                model.checked(ctx, run, "steady run")
            sample = Sample(raw=sample.raw / STEADY_RUNS, norm=sample.norm / STEADY_RUNS)
            ctx.add(f"{model.tag}_run_ms", sample.norm * 1e3)
            if model is self.resnet:
                ctx.add("resnet18_run_ms.raw", sample.raw * 1e3)
                ctx.add("tir.plan_hits_per_run", run.plan_hits)
                ctx.add("graph.arena_mb", run.memory.arena_bytes / 1e6)
            if not ctx.trace:
                continue
            self.wrapped.calls = 0
            mark = ctx.recorder.mark()

            def traced_run(model=model):
                with ctx.span("graph.run"):
                    return model.run(self.wrapped)

            traced, traced_sample = ctx.clock.timed(f"{model.tag}.traced", traced_run)
            model.checked(ctx, traced, "traced run")
            self_times = ctx.recorder.self_times(mark)
            scale = traced_sample.norm / traced_sample.raw
            ctx.add(f"graph.kernel_ms.{model.tag}", self_times["tir.executor_run"] * scale * 1e3)
            ctx.add(f"graph.dispatch_ms.{model.tag}", self_times["graph.run"] * scale * 1e3)
            ctx.add(f"graph.executor_calls.{model.tag}", self.wrapped.calls)
            ctx.traced_vs_plain(traced_sample.raw, sample.raw)
        if ctx.extras(self.family):
            graph = self.resnet.compiled.graph
            _, sample = ctx.clock.timed(
                "plan_memory", lambda: plan_memory(graph, keep=[self.resnet.kept])
            )
            ctx.add("graph.plan_memory_ms", sample.norm * 1e3)

    def finish(self, ctx: Context) -> None:
        if not ctx.trace:
            return
        # The links of the promotion chain, timed directly on kernels the
        # model really runs (the first few distinct ones the wrapper saw).
        codegen = cc = qualify = 0.0
        probed = list(self.wrapped.seen.values())
        for func, before, expected in probed:
            _, sample = ctx.clock.timed("probe.codegen", lambda: generate_c(func))
            codegen += sample.norm
            _, built = ctx.clock.timed("probe.cc", lambda: compile_native(func))
            cc += built.norm - sample.norm
            verdict, sample = ctx.clock.timed(
                "probe.qualify", lambda: sandbox.qualify(func, before, expected)
            )
            ctx.check(verdict.ok, f"sandbox.qualify({func.name}) said {verdict.outcome}")
            qualify += sample.norm
        ctx.set("native.codegen_ms", codegen / len(probed) * 1e3)
        ctx.set("native.cc_ms", cc / len(probed) * 1e3)
        ctx.set("native.qualify_ms", qualify / len(probed) * 1e3)
