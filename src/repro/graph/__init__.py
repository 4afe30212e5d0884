"""``repro.graph`` — the Relay-like graph IR, its passes and its runners.

A model is a DAG of operators (:mod:`.ir`); the quantization, layout/padding
and operator fusion passes prepare it for tensorization.  Then one module per
job: :mod:`.estimate` sums per-operator latencies, :mod:`.oracle` executes a
graph node by node into fresh arrays (the definition of a correct run), and
:mod:`.program` executes it memory-planned and plan-cached, byte-equal to
the oracle.
"""

from .estimate import GraphLatencyReport, estimate_graph_latency
from .fuse import FUSABLE_KINDS, fuse_elementwise
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
    TensorShape,
    rescale_input,
)
from .layout import LayoutDecision, padding_waste, plan_layout
from .oracle import execute_graph
from .program import GraphProgram, MemoryPlan, ModelRun, plan_memory, run_model
from .quantize import quantize_graph

__all__ = [
    "Graph",
    "GraphNode",
    "TensorShape",
    "InputNode",
    "Conv2DNode",
    "DepthwiseConv2DNode",
    "DenseNode",
    "PoolNode",
    "GlobalPoolNode",
    "ElementwiseNode",
    "ConcatNode",
    "FlattenNode",
    "SoftmaxNode",
    "quantize_graph",
    "plan_layout",
    "LayoutDecision",
    "padding_waste",
    "fuse_elementwise",
    "FUSABLE_KINDS",
    "estimate_graph_latency",
    "execute_graph",
    "GraphLatencyReport",
    "MemoryPlan",
    "plan_memory",
    "ModelRun",
    "GraphProgram",
    "run_model",
    "rescale_input",
]
