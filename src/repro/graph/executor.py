"""End-to-end graph latency estimation and functional graph execution.

The *latency* executor walks a (quantized, fused) graph in topological order
and asks an *operator runner* for the latency of every node: UNIT's compiled
operators (``repro.core``) or one of the baseline libraries
(``repro.baselines``).  The sum is the model-inference latency reported in
the end-to-end figures; batch size is always 1 (Section V-C).

The *functional* executor (:func:`execute_graph`) runs the same graph
numerically: compute-intensive operators (convolutions, dense layers) are
expressed in the tensor DSL, lowered, and executed through a
:class:`repro.tir.Executor` (the vectorized tier by default — the
repository's validation oracle), while structural operators (pooling,
concat, softmax, elementwise) use direct numpy semantics.

:func:`run_model` is the *memory-planned* whole-model path: a liveness
analysis (:func:`plan_memory`) assigns every activation a slot in one shared
arena — a node's output buffer is reused as soon as its last consumer has
run, instead of every operator allocating fresh storage — and every
compute-intensive node executes through the process-wide executable-plan
cache (:mod:`repro.tir.plan`), so a model's many structurally identical
layers compile once and run warm.  What a run does not need to recompute
(shapes, the memory plan, the arena and its views, padded staging buffers,
lowered functions and their buffer dicts) is built once per graph into a
:class:`GraphProgram`; :func:`execute_graph` stays the naive
allocate-per-node oracle the program must match bit for bit.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from ..dsl.expr import expr_cache_epoch
from ..hwsim.cost import CostBreakdown
from ..telemetry import metrics as _metrics, trace as _trace
from .ir import (
    ConcatNode,
    Conv2DNode,
    DenseNode,
    DepthwiseConv2DNode,
    ElementwiseNode,
    FlattenNode,
    GlobalPoolNode,
    Graph,
    GraphNode,
    InputNode,
    PoolNode,
    SoftmaxNode,
)

__all__ = [
    "GraphLatencyReport",
    "estimate_graph_latency",
    "execute_graph",
    "MemoryPlan",
    "plan_memory",
    "ModelRun",
    "GraphProgram",
    "run_model",
]

# Fallback sustained MAC rate for operators no runner specialises (depthwise
# convolutions, pooling): a vectorised but non-tensorized loop.
_FALLBACK_MACS_PER_SECOND = 2.0e11
_FALLBACK_ELEMENTWISE_US = 4.0


@dataclass
class GraphLatencyReport:
    """Per-node and total latency of one model."""

    graph_name: str
    total: CostBreakdown
    per_node: Dict[str, CostBreakdown] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.total.seconds

    @property
    def total_milliseconds(self) -> float:
        return self.total.seconds * 1e3

    def slowest_nodes(self, k: int = 5) -> List[str]:
        ranked = sorted(self.per_node.items(), key=lambda kv: kv[1].seconds, reverse=True)
        return [name for name, _ in ranked[:k]]


def estimate_graph_latency(graph: Graph, runner) -> GraphLatencyReport:
    """Estimate the end-to-end inference latency of ``graph`` under ``runner``.

    ``runner`` must provide ``conv2d_latency(Conv2DParams)``,
    ``dense_latency(DenseParams)`` and ``elementwise_latency()``; it may
    optionally provide ``depthwise_conv2d_latency(node)`` and
    ``pool_latency(node, shape)`` for more faithful handling of those
    operators.
    """
    graph.infer_shapes()
    per_node: Dict[str, CostBreakdown] = {}
    total = CostBreakdown(seconds=0.0)
    for node in graph.nodes:
        cost = _node_latency(node, graph, runner)
        per_node[node.name] = cost
        total = total + cost
    return GraphLatencyReport(graph_name=graph.name, total=total, per_node=per_node)


def _node_latency(node: GraphNode, graph: Graph, runner) -> CostBreakdown:
    if isinstance(node, InputNode):
        return CostBreakdown(seconds=0.0)
    if isinstance(node, Conv2DNode):
        params = node.conv_params()
        cost = runner.conv2d_latency(params)
        if node.groups > 1:
            cost = cost.scaled(node.groups)
        return cost
    if isinstance(node, DenseNode):
        return runner.dense_latency(node.dense_params())
    if isinstance(node, DepthwiseConv2DNode):
        if hasattr(runner, "depthwise_conv2d_latency"):
            return runner.depthwise_conv2d_latency(node)
        seconds = node.macs / _FALLBACK_MACS_PER_SECOND + _FALLBACK_ELEMENTWISE_US * 1e-6
        return CostBreakdown(seconds=seconds, compute_seconds=seconds)
    if isinstance(node, (PoolNode, GlobalPoolNode)):
        if hasattr(runner, "pool_latency"):
            return runner.pool_latency(node, graph.output_shape(node.name))
        out = graph.output_shape(node.name)
        work = out.elements * (node.kernel**2 if isinstance(node, PoolNode) else 1)
        seconds = work / _FALLBACK_MACS_PER_SECOND + _FALLBACK_ELEMENTWISE_US * 1e-6
        return CostBreakdown(seconds=seconds, compute_seconds=seconds)
    if isinstance(node, (ElementwiseNode, ConcatNode, FlattenNode, SoftmaxNode)):
        return runner.elementwise_latency()
    raise TypeError(f"unknown graph node type {type(node).__name__}")


# ---------------------------------------------------------------------------
# Functional execution — the engine as the graph-level oracle
# ---------------------------------------------------------------------------


def execute_graph(
    graph: Graph,
    inputs: Dict[str, np.ndarray],
    weights: Optional[Dict[str, np.ndarray]] = None,
    rng: Optional[np.random.Generator] = None,
    executor=None,
) -> Dict[str, np.ndarray]:
    """Execute ``graph`` numerically in float32, CHW activations.

    ``inputs`` maps input-node names to ``(C, H, W)`` arrays.  ``weights``
    optionally supplies parameters per node (``(K, C, R, S)`` for
    convolutions, ``(C, R, S)`` for depthwise, ``(out, in)`` for dense);
    missing parameters are drawn deterministically from ``rng``.

    Convolutions and dense layers are lowered from the tensor DSL and run
    through a :class:`~repro.tir.Executor` — pass one via ``executor`` to
    control the tier and validation policy (the default is the vectorized
    tier, the oracle), so graph execution exercises exactly the code path
    that validates tensorized kernels.  Returns every node's output keyed by
    node name.
    """
    graph.infer_shapes()
    weights = dict(weights or {})
    rng = rng or np.random.default_rng(0)
    executor = _resolve_executor(executor)
    outputs: Dict[str, np.ndarray] = {}
    for node in graph.nodes:
        ins = [outputs[name] for name in node.inputs]
        out = _execute_node(node, ins, inputs, weights, rng, executor)
        for activation in node.fused_activations:
            out = _apply_elementwise(activation, [out])
        outputs[node.name] = np.ascontiguousarray(out, dtype=np.float32)
    return outputs


def _resolve_executor(executor):
    """The caller's Executor, or the default vectorized-tier one."""
    if executor is not None:
        return executor
    from ..tir.executor import Executor

    return Executor(tier="vectorized")


def _execute_node(node, ins, inputs, weights, rng, executor) -> np.ndarray:
    """One node of :func:`execute_graph`: fresh arrays in, a fresh array out."""
    if isinstance(node, InputNode):
        try:
            array = inputs[node.name]
        except KeyError as exc:
            raise KeyError(f"missing input array for node {node.name!r}") from exc
        shape = (node.shape.channels, node.shape.height, node.shape.width)
        if tuple(array.shape) != shape:
            raise ValueError(
                f"input {node.name!r} has shape {array.shape}, expected {shape}"
            )
        return array

    if isinstance(node, Conv2DNode):
        x = ins[0]
        c_in, _, _ = x.shape
        w = _param(
            weights, node.name, (node.out_channels, c_in // node.groups, node.kernel, node.kernel), rng
        )
        if node.padding:
            x = np.pad(x, ((0, 0), (node.padding,) * 2, (node.padding,) * 2))
        if node.groups == 1:
            return _run_lowered(executor, "conv2d", x, w, node.stride, node.name)
        group_c = c_in // node.groups
        group_k = node.out_channels // node.groups
        parts = [
            _run_lowered(
                executor,
                "conv2d",
                x[g * group_c : (g + 1) * group_c],
                w[g * group_k : (g + 1) * group_k],
                node.stride,
                f"{node.name}_g{g}",
            )
            for g in range(node.groups)
        ]
        return np.concatenate(parts, axis=0)

    if isinstance(node, DepthwiseConv2DNode):
        x = ins[0]
        c = x.shape[0]
        w = _param(weights, node.name, (c, node.kernel, node.kernel), rng)
        if node.padding:
            x = np.pad(x, ((0, 0), (node.padding,) * 2, (node.padding,) * 2))
        return _run_lowered(executor, "depthwise", x, w, node.stride, node.name)

    if isinstance(node, DenseNode):
        x = ins[0].reshape(-1)
        w = _param(weights, node.name, (node.out_features, x.size), rng)
        out = _run_lowered(executor, "dense", x, w, 1, node.name)
        return out.reshape(node.out_features, 1, 1)

    if isinstance(node, PoolNode):
        x = ins[0]
        k, s = node.kernel, node.stride
        if node.padding:
            fill = -np.inf if node.kind == "max" else 0.0
            x = np.pad(
                x, ((0, 0), (node.padding,) * 2, (node.padding,) * 2),
                constant_values=fill,
            )
        _, h, w = x.shape
        oh = max((h - k) // s + 1, 1)
        ow = max((w - k) // s + 1, 1)
        acc = None
        for r in range(k):
            for c in range(k):
                window = x[:, r : r + oh * s : s, c : c + ow * s : s]
                if acc is None:
                    acc = window.astype(np.float32)
                elif node.kind == "max":
                    acc = np.maximum(acc, window)
                else:
                    acc = acc + window
        return acc if node.kind == "max" else acc / float(k * k)

    if isinstance(node, GlobalPoolNode):
        return ins[0].mean(axis=(1, 2), keepdims=True)

    if isinstance(node, ElementwiseNode):
        return _apply_elementwise(node.kind, ins)

    if isinstance(node, ConcatNode):
        return np.concatenate(ins, axis=0)

    if isinstance(node, FlattenNode):
        return ins[0].reshape(-1, 1, 1)

    if isinstance(node, SoftmaxNode):
        x = ins[0]
        e = np.exp(x - x.max(axis=0, keepdims=True))
        return e / e.sum(axis=0, keepdims=True)

    raise TypeError(f"cannot execute graph node type {type(node).__name__}")


def _lower_operator(kind: str, data_shape, weight_shape, stride: int, name: str):
    """Describe one compute-intensive operator in the tensor DSL and lower
    it; returns ``(func, data placeholder, weight placeholder)``."""
    from ..dsl import compute, placeholder, reduce_axis, sum_reduce
    from ..tir import lower

    data = placeholder(data_shape, "float32", "data")
    wt = placeholder(weight_shape, "float32", "weight")
    if kind == "dense":
        rk = reduce_axis(0, data_shape[0], "rk")
        out = compute(
            (weight_shape[0],),
            lambda j: sum_reduce(data[rk] * wt[j, rk], rk),
            name=name,
        )
        return lower(out), data, wt
    channels, h, wd = data_shape
    kernel = weight_shape[-1]
    oh = (h - kernel) // stride + 1
    ow = (wd - kernel) // stride + 1
    rc = reduce_axis(0, channels, "rc") if kind == "conv2d" else None
    rr = reduce_axis(0, kernel, "r")
    rs = reduce_axis(0, kernel, "s")
    if kind == "depthwise":
        out = compute(
            (channels, oh, ow),
            lambda cc, y, xx: sum_reduce(
                data[cc, y * stride + rr, xx * stride + rs] * wt[cc, rr, rs],
                [rr, rs],
            ),
            name=name,
        )
    else:
        out = compute(
            (weight_shape[0], oh, ow),
            lambda kk, y, xx: sum_reduce(
                data[rc, y * stride + rr, xx * stride + rs] * wt[kk, rc, rr, rs],
                [rc, rr, rs],
            ),
            name=name,
        )
    return lower(out), data, wt


class _LoweringCache:
    """Lowered operator functions by ``(kind, operand shapes, stride)``.

    A steady model run repeats the same layers call after call; handing back
    the *same* ``PrimFunc`` object saves rebuilding and re-lowering the DSL
    tree and lets the plan cache answer by identity (the function's
    remembered ``func_key`` is the very dict key stored, so the probe
    compares no tuples).  The function keeps the name of
    the first layer that asked.  Entries bake in interned expressions, so —
    like :class:`~repro.tir.plan.PlanCache` — everything is dropped when
    ``clear_expr_caches`` moves the epoch.
    """

    CAPACITY = 256  # distinct layer shapes kept, least recently used out first

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self._epoch = -1

    def get(self, kind: str, data_shape, weight_shape, stride: int, name: str):
        key = (kind, tuple(data_shape), tuple(weight_shape), stride)
        with self._lock:
            epoch = expr_cache_epoch()
            if epoch != self._epoch:
                self._entries.clear()
                self._epoch = epoch
            entry = self._entries.get(key)
            if entry is None:
                entry = _lower_operator(*key, name)
                self._entries[key] = entry
                if len(self._entries) > self.CAPACITY:
                    self._entries.popitem(last=False)
            else:
                self._entries.move_to_end(key)
            return entry


_LOWERINGS = _LoweringCache()


def _run_lowered(executor, kind, x, w, stride, name) -> np.ndarray:
    """Run one compute-intensive operator (``conv2d``, ``depthwise`` or
    ``dense``) through ``executor`` into a fresh output array."""
    func, data, wt = _LOWERINGS.get(kind, x.shape, w.shape, stride, name)
    buffers = {
        data: np.ascontiguousarray(x, dtype=np.float32),
        wt: np.ascontiguousarray(w, dtype=np.float32),
        func.output: np.zeros(func.output.shape, dtype=func.output.dtype.np_dtype),
    }
    return executor.run(func, buffers)


def _param(weights: Dict[str, np.ndarray], name: str, shape, rng) -> np.ndarray:
    if name in weights:
        array = np.asarray(weights[name], dtype=np.float32)
        if tuple(array.shape) != tuple(shape):
            raise ValueError(
                f"parameter for {name!r} has shape {array.shape}, expected {tuple(shape)}"
            )
        return array
    array = (rng.standard_normal(size=shape) * 0.1).astype(np.float32)
    weights[name] = array
    return array


def _apply_elementwise(kind: str, ins) -> np.ndarray:
    if kind == "relu":
        return np.maximum(ins[0], 0.0)
    if kind == "add":
        total = ins[0]
        for other in ins[1:]:
            total = total + other
        return total
    if kind == "clip":
        return np.clip(ins[0], 0.0, 6.0)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-ins[0]))
    # batch_norm and friends are latency stand-ins with no parameters here;
    # they pass activations through unchanged.
    return ins[0]


# ---------------------------------------------------------------------------
# Memory-planned whole-model execution
# ---------------------------------------------------------------------------


@dataclass
class MemoryPlan:
    """Liveness-based activation storage assignment for one graph.

    Every non-input node's output lives in a *slot* of one shared arena; a
    slot is recycled as soon as the node's last consumer has executed.
    ``naive_elements`` is what per-op fresh allocation would use (the sum of
    every activation), the denominator of the reuse ratio reported by the
    benchmarks.
    """

    graph_name: str
    slot_of: Dict[str, int]
    slot_elements: List[int]
    naive_elements: int

    @property
    def arena_elements(self) -> int:
        return sum(self.slot_elements)

    @property
    def arena_bytes(self) -> int:
        return self.arena_elements * 4  # float32 activations

    @property
    def naive_bytes(self) -> int:
        return self.naive_elements * 4

    @property
    def reuse_ratio(self) -> float:
        """How many times smaller the arena is than naive allocation."""
        return self.naive_elements / self.arena_elements if self.arena_elements else 1.0


def plan_memory(graph: Graph, keep: Sequence[str] = ()) -> MemoryPlan:
    """Assign every activation an arena slot via liveness analysis.

    Nodes in ``keep`` (plus the graph output — the last node) are pinned:
    their slots are never recycled, so their contents survive the whole run;
    a ``keep`` name the graph does not have raises :class:`ValueError`.
    Slot assignment is greedy best-fit: a released slot is reused by the next
    node it can hold (growing the smallest-fitting slot when none is large
    enough), which keeps the arena close to the live-set peak.
    """
    graph.infer_shapes()
    pinned = set(keep)
    for name in keep:
        if name not in graph:
            raise ValueError(f"keep names {name!r}, which is not a node of graph {graph.name!r}")
    if graph.nodes:
        pinned.add(graph.nodes[-1].name)
    last_use: Dict[str, int] = {}
    for index, node in enumerate(graph.nodes):
        for name in node.inputs:
            last_use[name] = index

    slot_of: Dict[str, int] = {}
    slot_elements: List[int] = []
    free: List[int] = []
    naive = 0
    for index, node in enumerate(graph.nodes):
        if not isinstance(node, InputNode):
            need = graph.output_shape(node.name).elements
            naive += need
            fitting = [s for s in free if slot_elements[s] >= need]
            if fitting:
                slot = min(fitting, key=lambda s: slot_elements[s])
                free.remove(slot)
            elif free:
                slot = max(free, key=lambda s: slot_elements[s])
                free.remove(slot)
                slot_elements[slot] = need
            else:
                slot = len(slot_elements)
                slot_elements.append(need)
            slot_of[node.name] = slot
        # Inputs whose last consumer just ran release their slots — after the
        # current node's output slot is assigned, so a node never computes
        # into a buffer it is still reading.  Deduplicated: a node listing
        # the same input twice must release its slot exactly once.
        for name in dict.fromkeys(node.inputs):
            if (
                last_use.get(name) == index
                and name in slot_of
                and name not in pinned
            ):
                free.append(slot_of[name])
    return MemoryPlan(
        graph_name=graph.name,
        slot_of=slot_of,
        slot_elements=slot_elements,
        naive_elements=naive,
    )


@dataclass
class ModelRun:
    """The result of one memory-planned, plan-cached model execution."""

    graph_name: str
    output: np.ndarray
    outputs: Dict[str, np.ndarray]
    memory: MemoryPlan
    plan_hits: int
    plan_misses: int
    seconds: float

    @property
    def plan_hit_rate(self) -> float:
        total = self.plan_hits + self.plan_misses
        return self.plan_hits / total if total else 0.0


class GraphProgram:
    """Everything about running one graph that no run changes, built once.

    Inferred shapes, the :class:`MemoryPlan` and (inside each
    :class:`_Frame`) the arena with its per-node slot views, the padded
    staging buffers, the lowered function and buffer dict of every compute
    node.  :func:`run_model` fetches the program of its ``(graph, keep)``
    with :meth:`for_graph` and calls :meth:`run`; a program whose graph has
    been edited since, or whose lowerings predate ``clear_expr_caches``, is
    rebuilt there.

    What a run writes lives in a frame that one run owns at a time: the idle
    one is reused, and a run that finds none (another thread is mid-run on
    this graph) builds its own.
    """

    _lock = threading.Lock()
    _programs: "WeakKeyDictionary[Graph, Dict[Tuple[str, ...], GraphProgram]]" = (
        WeakKeyDictionary()
    )

    def __init__(self, graph: Graph, keep: Tuple[str, ...] = ()) -> None:
        with _trace.span("graph.program_build", graph=graph.name, nodes=len(graph)) as span:
            self.memory = plan_memory(graph, keep=keep)
            self.graph_name = graph.name
            self.epoch = expr_cache_epoch()
            # Nodes are mutable, and so are their lists: a copy of every
            # node's fields tells an edited graph from the one built.
            self.nodes = list(graph.nodes)
            self._fields = [
                {k: list(v) if isinstance(v, list) else v for k, v in vars(node).items()}
                for node in graph.nodes
            ]
            self.shapes = {node.name: graph.output_shape(node.name) for node in graph.nodes}
            self.kept = (*keep, graph.nodes[-1].name)
            self._frames_lock = threading.Lock()
            self._idle = [_Frame(self)]
            span.set(
                arena_bytes=self.memory.arena_bytes,
                staging_bytes=sum(a.nbytes for a in self._idle[0].staging.values()),
            )
        _metrics.count("graph.program_builds")

    @classmethod
    def for_graph(cls, graph: Graph, keep: Sequence[str] = ()) -> "GraphProgram":
        """The program of ``(graph, keep)``: the one built by an earlier call
        while it still describes ``graph``, else a new one."""
        keep = tuple(keep)
        with cls._lock:
            programs = cls._programs.setdefault(graph, {})
            program = programs.get(keep)
            if program is not None and program.describes(graph):
                _metrics.count("graph.program_reuses")
            else:
                program = programs[keep] = cls(graph, keep)
        return program

    def describes(self, graph: Graph) -> bool:
        """Whether ``graph`` is still, node for node and field for field, the
        graph this program was built from, under the same interned
        expressions."""
        return (
            self.epoch == expr_cache_epoch()
            and self.graph_name == graph.name
            and self.nodes == graph.nodes
            and self._fields == [vars(node) for node in graph.nodes]
        )

    def run(self, inputs, weights, rng, executor) -> ModelRun:
        """One model execution through ``executor``.

        ``weights`` are bound by array identity (a replaced array is rebound,
        one mutated in place is simply read again — nothing is copied);
        parameters it lacks are drawn from ``rng`` in node order and added to
        it.
        """
        from ..tir.plan import plan_cache

        cache_stats = plan_cache().stats
        hits0, misses0 = cache_stats.hits, cache_stats.misses
        started = time.perf_counter()
        with self._frames_lock:
            frame = self._idle.pop() if self._idle else None
        if frame is None:
            frame = _Frame(self)
        try:
            frame.inputs, frame.weights, frame.rng, frame.executor = inputs, weights, rng, executor
            for step in frame.steps:
                step()
            kept = {name: frame.values[name].copy() for name in self.kept}
        finally:
            frame.inputs = frame.weights = frame.rng = frame.executor = None
            with self._frames_lock:
                self._idle.append(frame)
        return ModelRun(
            graph_name=self.graph_name,
            output=kept[self.kept[-1]],
            outputs=kept,
            memory=self.memory,
            plan_hits=cache_stats.hits - hits0,
            plan_misses=cache_stats.misses - misses0,
            seconds=time.perf_counter() - started,
        )


class _Frame:
    """The storage one run of a :class:`GraphProgram` writes, and the steps
    bound to it.

    ``steps`` is the whole model as a flat list of argument-less callables
    over preallocated arrays: ``values`` holds every node's output (a view of
    ``arena`` at its planned slot; inputs get their own buffer), ``staging``
    the padded copies operators read.  Nothing is zeroed between runs or
    between the occupants of a slot — every step overwrites all of its
    output.  The caller's ``inputs``, ``weights``, ``rng`` and ``executor``
    are attributes set for the duration of a run.
    """

    def __init__(self, program: GraphProgram) -> None:
        memory = program.memory
        self.arena = np.empty(memory.arena_elements, dtype=np.float32)
        self.staging: Dict[Tuple, np.ndarray] = {}
        self.values: Dict[str, np.ndarray] = {}
        self.steps: List[Callable[[], object]] = []
        self.inputs = self.weights = self.rng = self.executor = None
        offsets = [0]
        for elements in memory.slot_elements:
            offsets.append(offsets[-1] + elements)
        for node in program.nodes:
            shape = program.shapes[node.name]
            if isinstance(node, InputNode):
                out = np.empty(shape.elements, dtype=np.float32)
            else:
                start = offsets[memory.slot_of[node.name]]
                out = self.arena[start : start + shape.elements]
            out = out.reshape(shape.channels, shape.height, shape.width)
            self._bind(node, [self.values[name] for name in node.inputs], out)
            for activation in node.fused_activations:
                self._elementwise(activation, [out], out)
            self.values[node.name] = out

    def _bind(self, node: GraphNode, ins: List[np.ndarray], out: np.ndarray) -> None:
        """Append the steps that compute ``node`` from ``ins`` into ``out``,
        with :func:`_execute_node`'s arithmetic."""
        steps = self.steps
        if isinstance(node, InputNode):
            steps.append(partial(self._load_input, node.name, out))
        elif isinstance(node, Conv2DNode):
            c_in = ins[0].shape[0]
            weight_shape = (node.out_channels, c_in // node.groups, node.kernel, node.kernel)
            x = self._padded(ins[0], node.padding)
            self._lowered(node, "conv2d", x, out, weight_shape, node.stride, node.groups)
        elif isinstance(node, DepthwiseConv2DNode):
            weight_shape = (ins[0].shape[0], node.kernel, node.kernel)
            x = self._padded(ins[0], node.padding)
            self._lowered(node, "depthwise", x, out, weight_shape, node.stride)
        elif isinstance(node, DenseNode):
            x = ins[0].reshape(-1)
            self._lowered(node, "dense", x, out, (node.out_features, x.size), 1)
        elif isinstance(node, PoolNode):
            k, s = node.kernel, node.stride
            x = self._padded(ins[0], node.padding, -np.inf if node.kind == "max" else 0.0)
            _, oh, ow = out.shape
            first, *rest = [
                x[:, r : r + oh * s : s, c : c + ow * s : s] for r in range(k) for c in range(k)
            ]
            fold = np.maximum if node.kind == "max" else np.add
            steps.append(partial(np.copyto, out, first))
            steps.extend(partial(fold, out, window, out=out) for window in rest)
            if node.kind != "max":
                steps.append(partial(np.divide, out, float(k * k), out=out))
        elif isinstance(node, GlobalPoolNode):
            steps.append(partial(np.mean, ins[0], axis=(1, 2), keepdims=True, out=out))
        elif isinstance(node, ElementwiseNode):
            self._elementwise(node.kind, ins, out)
        elif isinstance(node, ConcatNode):
            steps.append(partial(np.concatenate, ins, axis=0, out=out))
        elif isinstance(node, FlattenNode):
            steps.append(partial(np.copyto, out, ins[0].reshape(out.shape)))
        elif isinstance(node, SoftmaxNode):
            x = ins[0]

            def softmax() -> None:
                np.subtract(x, x.max(axis=0, keepdims=True), out=out)
                np.exp(out, out=out)
                np.divide(out, out.sum(axis=0, keepdims=True), out=out)

            steps.append(softmax)
        else:
            raise TypeError(f"cannot execute graph node type {type(node).__name__}")

    def _load_input(self, name: str, out: np.ndarray) -> None:
        try:
            array = self.inputs[name]
        except KeyError as exc:
            raise KeyError(f"missing input array for node {name!r}") from exc
        if tuple(array.shape) != out.shape:
            raise ValueError(f"input {name!r} has shape {array.shape}, expected {out.shape}")
        out[...] = array

    def _padded(self, x: np.ndarray, padding: int, fill: float = 0.0) -> np.ndarray:
        """``x`` as an operator with ``padding`` reads it: ``x`` itself, or a
        staging buffer whose border was filled once and whose interior a step
        overwrites on every run.  Nodes run one after another, so all with
        the same input shape, padding and fill share one buffer."""
        if not padding:
            return x
        key = (x.shape, padding, fill)
        staged = self.staging.get(key)
        if staged is None:
            channels, height, width = x.shape
            staged = self.staging[key] = np.full(
                (channels, height + 2 * padding, width + 2 * padding), fill, dtype=np.float32
            )
        interior = staged[:, padding:-padding, padding:-padding]
        self.steps.append(partial(np.copyto, interior, x))
        return staged

    def _lowered(self, node, kind, x, out, weight_shape, stride, groups=1) -> None:
        """One ``executor.run`` per group over buffer dicts built here; only
        the weight entry can change from run to run."""
        group_c, group_k = x.shape[0] // groups, weight_shape[0] // groups
        func, data, wt = _LOWERINGS.get(
            kind,
            (group_c, *x.shape[1:]),
            (group_k, *weight_shape[1:]),
            stride,
            node.name if groups == 1 else f"{node.name}_g0",
        )
        calls = [
            {
                data: x[g * group_c : (g + 1) * group_c],
                func.output: out[g * group_k : (g + 1) * group_k].reshape(func.output.shape),
            }
            for g in range(groups)
        ]
        bound = None  # the caller's array the dicts hold, when they hold it uncopied

        def run() -> None:
            nonlocal bound
            given = self.weights.get(node.name)
            if given is None or given is not bound:
                w = np.ascontiguousarray(_param(self.weights, node.name, weight_shape, self.rng))
                bound = given if w is given else None
                for g, buffers in enumerate(calls):
                    buffers[wt] = w[g * group_k : (g + 1) * group_k]
            for buffers in calls:
                self.executor.run(func, buffers)

        self.steps.append(run)

    def _elementwise(self, kind: str, ins: List[np.ndarray], out: np.ndarray) -> None:
        """:func:`_apply_elementwise` into ``out``, which may be ``ins[0]``
        (a fused activation)."""
        steps = self.steps
        if kind == "relu":
            steps.append(partial(np.maximum, ins[0], 0.0, out=out))
        elif kind == "clip":
            steps.append(partial(np.clip, ins[0], 0.0, 6.0, out=out))
        elif kind == "sigmoid":
            steps.append(lambda: np.copyto(out, _apply_elementwise(kind, ins)))
        else:  # "add", and the parameterless stand-ins that pass ins[0] through
            total = ins[0]
            for other in ins[1:] if kind == "add" else ():
                steps.append(partial(np.add, total, other, out=out))
                total = out
            if total is not out:
                steps.append(partial(np.copyto, out, total))


def run_model(
    graph: Graph,
    inputs: Dict[str, np.ndarray],
    weights: Optional[Dict[str, np.ndarray]] = None,
    rng: Optional[np.random.Generator] = None,
    keep: Sequence[str] = (),
    executor=None,
) -> ModelRun:
    """Execute a whole model through cached plans and one activation arena.

    The engine-backed counterpart of :func:`execute_graph` for end-to-end
    runs: numerically identical (same DSL lowerings, same engines, same
    parameter generation), but the graph is compiled once into a
    :class:`GraphProgram` that every later call on it reuses — activations
    live in arena slots assigned by :func:`plan_memory`, recycled buffer
    space instead of one fresh array per operator — and every lowered
    operator executes through ``executor`` and so through the process-wide
    :class:`~repro.tir.plan.PlanCache`: a model's repeated layer shapes pay
    the loop-nest analysis once.

    Returns a :class:`ModelRun` with the graph output (the last node), the
    outputs of ``keep`` nodes (copies), the memory plan, and the plan-cache
    hit/miss delta of this call.
    """
    return GraphProgram.for_graph(graph, keep).run(
        inputs,
        dict(weights or {}),
        rng or np.random.default_rng(0),
        _resolve_executor(executor),
    )
