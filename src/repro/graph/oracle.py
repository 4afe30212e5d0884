"""The graph oracle: :func:`execute_graph` runs a graph node by node, each
into freshly allocated arrays.

Compute-intensive operators are lowered from the tensor DSL and run through
a :class:`repro.tir.Executor`; structural operators use direct numpy
semantics.  The memory-planned :mod:`repro.graph.program` must match it byte
for byte, so what the two runners share lives here: the activation dtype,
each compute node's lowering (:func:`_group_lowering`), the weight rule
(:func:`_param`), the input check and the pool windows.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dsl.expr import expr_cache_epoch
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

__all__ = ["ACTIVATION_DTYPE", "execute_graph"]

# Every activation, weight and lowered operand of a graph run.
ACTIVATION_DTYPE = np.dtype(np.float32)


def execute_graph(
    graph: Graph,
    inputs: Dict[str, np.ndarray],
    weights: Optional[Dict[str, np.ndarray]] = None,
    rng: Optional[np.random.Generator] = None,
    executor=None,
) -> Dict[str, np.ndarray]:
    """Execute ``graph`` numerically in :data:`ACTIVATION_DTYPE`, CHW activations.

    ``inputs`` maps input-node names to ``(C, H, W)`` arrays.  ``weights``
    optionally supplies parameters per node, each of its node's
    ``weight_shape``; missing parameters are drawn deterministically from
    ``rng``.

    Convolutions and dense layers are lowered from the tensor DSL and run
    through a :class:`~repro.tir.Executor` — pass one via ``executor`` to
    control the tier and validation policy (the default is the vectorized
    tier, the oracle), so graph execution exercises exactly the code path
    that validates tensorized kernels.  Returns every node's output keyed by
    node name.
    """
    shapes = graph.infer_shapes()
    weights = dict(weights or {})
    rng = rng or np.random.default_rng(0)
    executor = _resolve_executor(executor)
    outputs: Dict[str, np.ndarray] = {}
    for node in graph.nodes:
        ins = [outputs[name] for name in node.inputs]
        shape = shapes[node.name]
        dims = (shape.channels, shape.height, shape.width)
        out = _execute_node(node, ins, dims, inputs, weights, rng, executor)
        for activation in node.fused_activations:
            out = _apply_elementwise(activation, [out])
        outputs[node.name] = np.ascontiguousarray(out, dtype=ACTIVATION_DTYPE)
    return outputs


def _resolve_executor(executor):
    """The caller's Executor, or the default vectorized-tier one."""
    if executor is not None:
        return executor
    from ..tir.executor import Executor

    return Executor(tier="vectorized")


def _execute_node(node, ins, dims, inputs, weights, rng, executor) -> np.ndarray:
    """One node of :func:`execute_graph`: fresh arrays in, a fresh array of
    the inferred shape ``dims`` out."""
    if isinstance(node, InputNode):
        return _input(inputs, node.name, dims)

    if node.is_compute_intensive:
        x = ins[0].reshape(-1) if isinstance(node, DenseNode) else _pad(ins[0], node)
        w = _param(weights, node, rng)
        (func, data, wt), groups = _group_lowering(node, x.shape)
        out = func.output
        parts = [
            executor.run(func, {data: xg, wt: wg, out: np.zeros(out.shape, out.dtype.np_dtype)})
            for xg, wg in zip(_split(x, groups), _split(w, groups))
        ]
        return np.concatenate(parts, axis=0).reshape(dims)

    if isinstance(node, PoolNode):
        first, *rest = _pool_windows(_pad(ins[0], node), node, dims)
        acc = first.astype(ACTIVATION_DTYPE)
        for window in rest:
            acc = np.maximum(acc, window) if node.kind == "max" else acc + window
        return acc if node.kind == "max" else acc / float(node.kernel**2)

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


def _input(inputs: Dict[str, np.ndarray], name: str, dims) -> np.ndarray:
    """The caller's array for input node ``name``, checked against ``dims``."""
    try:
        array = inputs[name]
    except KeyError as exc:
        raise KeyError(f"missing input array for node {name!r}") from exc
    if tuple(array.shape) != dims:
        raise ValueError(f"input {name!r} has shape {array.shape}, expected {dims}")
    return array


def _pool_windows(x: np.ndarray, node: PoolNode, dims) -> List[np.ndarray]:
    """The ``kernel**2`` strided views of padded ``x`` that pool ``node``
    folds into its output of shape ``dims``, one per window offset."""
    k, s = node.kernel, node.stride
    _, oh, ow = dims
    return [x[:, r : r + oh * s : s, c : c + ow * s : s] for r in range(k) for c in range(k)]


def _pad(x: np.ndarray, node: GraphNode) -> np.ndarray:
    """``x`` with ``node.padding`` of ``node.pad_fill`` around each spatial axis."""
    if not node.padding:
        return x
    border = (node.padding, node.padding)
    return np.pad(x, ((0, 0), border, border), constant_values=node.pad_fill)


def _split(array: np.ndarray, groups: int) -> List[np.ndarray]:
    """``groups`` equal slices of ``array``'s leading axis."""
    size = len(array) // groups
    return [array[g * size : (g + 1) * size] for g in range(groups)]


def _lower_operator(kind: str, data_shape, weight_shape, stride: int, name: str):
    """Describe one compute-intensive operator in the tensor DSL and lower
    it; returns ``(func, data placeholder, weight placeholder)``."""
    from ..dsl import compute, placeholder, reduce_axis, sum_reduce
    from ..tir import lower

    data = placeholder(data_shape, ACTIVATION_DTYPE, "data")
    wt = placeholder(weight_shape, ACTIVATION_DTYPE, "weight")
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


def _group_lowering(node: GraphNode, data_shape) -> Tuple[Tuple, int]:
    """What compute node ``node`` runs on data of ``data_shape`` (padded, or
    flattened for a dense layer): ``((func, data placeholder, weight
    placeholder), groups)``.  The function runs once per group, on the
    :func:`_split` slices of the data, the weight and the output."""
    if isinstance(node, Conv2DNode):
        kind, stride, groups = "conv2d", node.stride, node.groups
    elif isinstance(node, DepthwiseConv2DNode):
        kind, stride, groups = "depthwise", node.stride, 1
    else:
        kind, stride, groups = "dense", 1, 1
    weight_shape = node.weight_shape
    lowering = _LOWERINGS.get(
        kind,
        (data_shape[0] // groups, *data_shape[1:]),
        (weight_shape[0] // groups, *weight_shape[1:]),
        stride,
        node.name if groups == 1 else f"{node.name}_g0",
    )
    return lowering, groups


def _param(weights: Dict[str, np.ndarray], node: GraphNode, rng) -> np.ndarray:
    """``node``'s weight: the caller's, as a contiguous :data:`ACTIVATION_DTYPE`
    array of ``node.weight_shape``, or one drawn from ``rng`` and added to
    ``weights``."""
    shape = node.weight_shape
    if node.name in weights:
        array = np.ascontiguousarray(weights[node.name], dtype=ACTIVATION_DTYPE)
        if array.shape != shape:
            raise ValueError(
                f"parameter for {node.name!r} has shape {array.shape}, "
                f"expected its weight_shape {shape}"
            )
        return array
    array = (rng.standard_normal(size=shape) * 0.1).astype(ACTIVATION_DTYPE)
    weights[node.name] = array
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
