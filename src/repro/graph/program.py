"""Memory-planned whole-model execution: a graph built once, run many times.

:func:`run_model` gives every activation a slot of one byte arena
(:func:`plan_memory`, by liveness) and runs every compute node through the
process-wide plan cache.  What no run changes is built once per graph into a
:class:`GraphProgram`.  A program is correct when it matches
:func:`repro.graph.oracle.execute_graph` byte for byte, so it imports from
the oracle everything the two must agree on.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from ..dsl.expr import expr_cache_epoch
from ..telemetry import trace as _trace
from .ir import (
    ConcatNode,
    DenseNode,
    ElementwiseNode,
    FlattenNode,
    GlobalPoolNode,
    Graph,
    GraphNode,
    InputNode,
    PoolNode,
    SoftmaxNode,
)
from .oracle import (
    ACTIVATION_DTYPE,
    _apply_elementwise,
    _group_lowering,
    _input,
    _param,
    _pool_windows,
    _resolve_executor,
    _split,
)

__all__ = ["MemoryPlan", "plan_memory", "ModelRun", "GraphProgram", "run_model"]


@dataclass
class MemoryPlan:
    """Liveness-based activation storage assignment for one graph.

    Every non-input node's output lives in a *slot* of one shared arena; a
    slot is recycled as soon as the node's last consumer has executed.
    Sizes are in bytes.  ``naive_bytes`` is what per-op fresh allocation
    would use (the sum of every activation), the denominator of the reuse
    ratio reported by the benchmarks.
    """

    graph_name: str
    slot_of: Dict[str, int]
    slot_bytes: List[int]
    naive_bytes: int

    @property
    def arena_bytes(self) -> int:
        return sum(self.slot_bytes)

    @property
    def reuse_ratio(self) -> float:
        """How many times smaller the arena is than naive allocation."""
        return self.naive_bytes / self.arena_bytes if self.arena_bytes else 1.0


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
    slot_bytes: List[int] = []
    free: List[int] = []
    naive = 0
    for index, node in enumerate(graph.nodes):
        if not isinstance(node, InputNode):
            need = graph.output_shape(node.name).elements * ACTIVATION_DTYPE.itemsize
            naive += need
            fitting = [s for s in free if slot_bytes[s] >= need]
            if fitting:
                slot = min(fitting, key=lambda s: slot_bytes[s])
                free.remove(slot)
            elif free:
                slot = max(free, key=lambda s: slot_bytes[s])
                free.remove(slot)
                slot_bytes[slot] = need
            else:
                slot = len(slot_bytes)
                slot_bytes.append(need)
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
        slot_bytes=slot_bytes,
        naive_bytes=naive,
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

    @classmethod
    def for_graph(cls, graph: Graph, keep: Sequence[str] = ()) -> "GraphProgram":
        """The program of ``(graph, keep)``: the one built by an earlier call
        while it still describes ``graph``, else a new one."""
        keep = tuple(keep)
        with cls._lock:
            programs = cls._programs.setdefault(graph, {})
            program = programs.get(keep)
            if program is None or not program.describes(graph):
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
        from ..tir.backend import promotion_batch
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
            with promotion_batch():
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
    over preallocated arrays: ``values`` holds every node's output (a typed
    view of the byte ``arena`` at its planned slot; inputs get their own
    buffer), ``staging`` the padded copies operators read.  Nothing is
    zeroed between runs or between the occupants of a slot — every step
    overwrites all of its output.  The caller's ``inputs``, ``weights``,
    ``rng`` and ``executor`` are attributes set for the duration of a run.
    """

    def __init__(self, program: GraphProgram) -> None:
        memory = program.memory
        self.arena = np.empty(memory.arena_bytes, dtype=np.uint8)
        self.staging: Dict[Tuple, np.ndarray] = {}
        self.values: Dict[str, np.ndarray] = {}
        self.steps: List[Callable[[], object]] = []
        self.inputs = self.weights = self.rng = self.executor = None
        offsets = [0, *accumulate(memory.slot_bytes)]
        for node in program.nodes:
            shape = program.shapes[node.name]
            dims = (shape.channels, shape.height, shape.width)
            if isinstance(node, InputNode):
                out = np.empty(dims, dtype=ACTIVATION_DTYPE)
            else:
                start = offsets[memory.slot_of[node.name]]
                size = shape.elements * ACTIVATION_DTYPE.itemsize
                out = self.arena[start : start + size].view(ACTIVATION_DTYPE).reshape(dims)
            self._bind(node, [self.values[name] for name in node.inputs], out)
            for activation in node.fused_activations:
                self._elementwise(activation, [out], out)
            self.values[node.name] = out

    def _bind(self, node: GraphNode, ins: List[np.ndarray], out: np.ndarray) -> None:
        """Append the steps that compute ``node`` from ``ins`` into ``out``,
        with the oracle's arithmetic."""
        steps = self.steps
        if isinstance(node, InputNode):
            steps.append(partial(self._load_input, node.name, out))
        elif node.is_compute_intensive:
            x = ins[0].reshape(-1) if isinstance(node, DenseNode) else self._padded(ins[0], node)
            self._lowered(node, x, out)
        elif isinstance(node, PoolNode):
            first, *rest = _pool_windows(self._padded(ins[0], node), node, out.shape)
            fold = np.maximum if node.kind == "max" else np.add
            steps.append(partial(np.copyto, out, first))
            steps.extend(partial(fold, out, window, out=out) for window in rest)
            if node.kind != "max":
                steps.append(partial(np.divide, out, float(node.kernel**2), out=out))
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
        out[...] = _input(self.inputs, name, out.shape)

    def _padded(self, x: np.ndarray, node: GraphNode) -> np.ndarray:
        """``x`` as ``node`` reads it: ``x`` itself, or a staging buffer whose
        ``node.pad_fill`` border was filled once and whose interior a step
        overwrites on every run.  Nodes run one after another, so all with
        the same input shape, padding and fill share one buffer."""
        padding, fill = node.padding, node.pad_fill
        if not padding:
            return x
        key = (x.shape, padding, fill)
        staged = self.staging.get(key)
        if staged is None:
            channels, height, width = x.shape
            staged = self.staging[key] = np.full(
                (channels, height + 2 * padding, width + 2 * padding), fill, dtype=ACTIVATION_DTYPE
            )
        interior = staged[:, padding:-padding, padding:-padding]
        self.steps.append(partial(np.copyto, interior, x))
        return staged

    def _lowered(self, node: GraphNode, x: np.ndarray, out: np.ndarray) -> None:
        """One ``executor.run`` per group over buffer dicts built here; only
        the weight entry can change from run to run."""
        (func, data, wt), groups = _group_lowering(node, x.shape)
        calls = [
            {data: xg, func.output: outg.reshape(func.output.shape)}
            for xg, outg in zip(_split(x, groups), _split(out, groups))
        ]
        bound = None  # the caller's array the dicts hold, when they hold it uncopied

        def run() -> None:
            nonlocal bound
            given = self.weights.get(node.name)
            if given is None or given is not bound:
                w = _param(self.weights, node, self.rng)
                bound = given if w is given else None
                for buffers, wg in zip(calls, _split(w, groups)):
                    buffers[wt] = wg
            for buffers in calls:
                self.executor.run(func, buffers)

        self.steps.append(run)

    def _elementwise(self, kind: str, ins: List[np.ndarray], out: np.ndarray) -> None:
        """The oracle's elementwise arithmetic into ``out``, which may be
        ``ins[0]`` (a fused activation)."""
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

    The engine-backed counterpart of
    :func:`~repro.graph.oracle.execute_graph` for end-to-end runs:
    numerically identical (same DSL lowerings, same engines, same parameter
    generation), but the graph is compiled once into a :class:`GraphProgram`
    that every later call on it reuses — activations live in arena slots
    assigned by :func:`plan_memory`, recycled buffer space instead of one
    fresh array per operator — and every lowered operator executes through
    ``executor`` and so through the process-wide
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
