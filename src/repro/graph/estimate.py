"""End-to-end graph latency estimation (nothing here executes a graph).

:func:`estimate_graph_latency` walks a (quantized, fused) graph in
topological order and asks an *operator runner* for the latency of every
node: UNIT's compiled operators (``repro.core``) or one of the baseline
libraries (``repro.baselines``).  The sum is the model-inference latency
reported in the end-to-end figures; batch size is always 1 (Section V-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..hwsim.cost import CostBreakdown
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

__all__ = ["GraphLatencyReport", "estimate_graph_latency"]

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
    optionally provide ``depthwise_conv2d_latency(node)``.  Pooling and
    depthwise convolutions without it are charged at a fallback MAC rate.
    """
    graph.shapes()
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
        out = graph.output_shape(node.name)
        work = out.elements * (node.kernel**2 if isinstance(node, PoolNode) else 1)
        seconds = work / _FALLBACK_MACS_PER_SECOND + _FALLBACK_ELEMENTWISE_US * 1e-6
        return CostBreakdown(seconds=seconds, compute_seconds=seconds)
    if isinstance(node, (ElementwiseNode, ConcatNode, FlattenNode, SoftmaxNode)):
        return runner.elementwise_latency()
    raise TypeError(f"unknown graph node type {type(node).__name__}")
