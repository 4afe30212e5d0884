"""Graph-level quantization and operator fusion (Section V-C), in one walk.

The evaluated CPU models are quantized: fp32 convolutions and dense layers
become uint8×int8 operators accumulating in int32, with quantize/dequantize
boundaries where non-quantizable operators require fp32 inputs.  On the GPU
the analogous transformation converts operators to fp16 storage with fp32
accumulation (mixed precision).  Quantization rewrites operator dtypes and
inserts explicit ``quantize`` / ``dequantize`` elementwise nodes so the
executor charges their (small) cost, mirroring the casting overhead
discussion around Figure 1.

Compiler pipelines (TVM, and UNIT built on it) then fuse elementwise
operators — ReLU, batch-norm scaling, residual adds, quantize/requantize —
into the producing convolution or dense operator, eliminating their kernel
launches and extra memory round trips.  Library-backed frameworks such as
MXNet+oneDNN keep many of them as separate operators; that difference is
part of the end-to-end gap in Figure 8, so fusion is applied only to the
compiler-backed flows.

:func:`rewrite_graph` does both: it clones each node once, and rebuilds
(and re-infers) the graph once.  :func:`quantize_graph` and
:func:`fuse_elementwise` are its two halves.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .ir import (
    Conv2DNode,
    DenseNode,
    DepthwiseConv2DNode,
    ElementwiseNode,
    Graph,
    GraphNode,
    InputNode,
)

__all__ = ["rewrite_graph", "quantize_graph", "fuse_elementwise", "QUANTIZABLE_TYPES", "FUSABLE_KINDS"]

# The compute operators: quantized, and the producers elementwise ops fuse into.
QUANTIZABLE_TYPES = (Conv2DNode, DenseNode, DepthwiseConv2DNode)

FUSABLE_KINDS = {
    "relu",
    "relu6",
    "clip",
    "batch_norm",
    "bias_add",
    "add",
    "quantize",
    "requantize",
    "dequantize",
    "sigmoid",
    "swish",
}


def rewrite_graph(graph: Graph, dtype: Optional[str] = None, fuse: bool = True) -> Graph:
    """``graph`` quantized to ``dtype`` (``None``: dtypes kept), then with its
    elementwise operators fused (``fuse``); ``graph`` itself when neither.

    ``dtype`` is ``"int8"`` for the CPU flow (uint8 activations, int8
    weights, int32 accumulation) or ``"float16"`` for the GPU flow (fp16
    storage, fp32 accumulation).  An elementwise node is fused when its first
    input resolves to a compute operator that it alone consumes (an ``add``
    may share it with its residual branch); fused nodes are removed and
    recorded in the producer's ``fused_activations`` list.
    """
    if dtype is None and not fuse:
        return graph
    if dtype not in (None, "int8", "float16"):
        raise ValueError("target_dtype must be 'int8' or 'float16'")
    nodes: List[GraphNode] = []
    consumers: Dict[str, int] = {}  # over the quantized node list
    quantized: Dict[str, str] = {}  # network input -> its quantize node

    def emit(node: GraphNode) -> None:
        nodes.append(node)
        for name in node.inputs:
            consumers[name] = consumers.get(name, 0) + 1

    for node in graph.nodes:
        clone = object.__new__(type(node))
        clone.__dict__.update(node.__dict__)
        clone.inputs = [quantized.get(name, name) for name in node.inputs]
        clone.fused_activations = list(node.fused_activations)
        emit(clone)
        if dtype is None:
            continue
        if isinstance(node, InputNode):
            # Quantize the network input once.
            quantized[node.name] = f"{node.name}_quantize"
            emit(ElementwiseNode(quantized[node.name], [node.name], dtype, kind="quantize"))
        else:
            # Compute operators run in the target dtype, and the rest follow
            # their inputs: pooling, elementwise and concat all operate fine
            # on quantized data.
            clone.dtype = dtype
    if dtype is not None:
        # Dequantize before the final classifier output (softmax needs fp32).
        emit(ElementwiseNode("final_dequantize", [nodes[-1].name], "float32", kind="dequantize"))
    if fuse:
        kept: List[GraphNode] = []
        by_name: Dict[str, GraphNode] = {}
        fused_into: Dict[str, str] = {}  # fused node -> its (kept) producer
        for node in nodes:
            inputs = node.inputs
            node.inputs = [fused_into.get(name, name) for name in inputs]
            if isinstance(node, ElementwiseNode) and node.kind in FUSABLE_KINDS and inputs:
                producer = by_name.get(node.inputs[0])
                alone = consumers[inputs[0]] <= 1 + (node.kind == "add")
                if alone and isinstance(producer, QUANTIZABLE_TYPES):
                    producer.fused_activations.append(node.kind)
                    fused_into[node.name] = producer.name
                    continue
            kept.append(node)
            by_name[node.name] = node
        nodes = kept
    return graph.rebuild(nodes)


def quantize_graph(graph: Graph, target_dtype: str = "int8") -> Graph:
    """A quantized (or mixed-precision) copy of ``graph``; see :func:`rewrite_graph`."""
    return rewrite_graph(graph, target_dtype, fuse=False)


def fuse_elementwise(graph: Graph) -> Graph:
    """A copy of ``graph`` with its elementwise consumers fused into their
    compute-intensive producers; see :func:`rewrite_graph`."""
    return rewrite_graph(graph, None, fuse=True)
