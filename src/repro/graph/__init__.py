"""``repro.graph`` — the Relay-like graph IR and its passes.

A model is a DAG of operators; the quantization, layout/padding and operator
fusion passes prepare it for tensorization, and the executor aggregates
per-operator latencies into the end-to-end inference latency.
"""

from .executor import (
    GraphLatencyReport,
    GraphProgram,
    MemoryPlan,
    ModelRun,
    estimate_graph_latency,
    execute_graph,
    plan_memory,
    run_model,
)
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
