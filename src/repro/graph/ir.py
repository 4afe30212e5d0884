"""Graph-level IR: a deep-learning model as a DAG of operators.

This is the stand-in for TVM's Relay (Section II-C.1): enough structure to
express the nine evaluated models, to run the graph-level passes the paper
relies on (quantization, layout transformation / padding, operator fusion),
and to drive end-to-end latency estimation by dispatching every node to an
operator implementation (UNIT-compiled or a baseline library).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..workloads.conv2d import Conv2DParams
from ..workloads.dense import DenseParams

__all__ = [
    "TensorShape",
    "GraphNode",
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
    "Graph",
    "rescale_input",
]


@dataclass(frozen=True)
class TensorShape:
    """An activation shape in CHW layout (batch size is always 1)."""

    channels: int
    height: int
    width: int

    @property
    def elements(self) -> int:
        return self.channels * self.height * self.width


@dataclass
class GraphNode:
    """Base class of graph operators."""

    name: str
    inputs: List[str] = field(default_factory=list)
    dtype: str = "float32"
    fused_activations: List[str] = field(default_factory=list)

    @property
    def is_compute_intensive(self) -> bool:
        return False

    def output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        raise NotImplementedError

    @property
    def macs(self) -> int:
        return 0


@dataclass
class InputNode(GraphNode):
    shape: TensorShape = TensorShape(3, 224, 224)

    def output_shape(self, input_shapes):
        return self.shape


@dataclass
class Conv2DNode(GraphNode):
    out_channels: int = 0
    kernel: int = 1
    stride: int = 1
    padding: int = 0
    groups: int = 1
    in_shape: Optional[TensorShape] = None  # filled in by Graph.infer_shapes

    @property
    def is_compute_intensive(self) -> bool:
        return True

    def output_shape(self, input_shapes):
        s = input_shapes[0]
        oh = (s.height + 2 * self.padding - self.kernel) // self.stride + 1
        ow = (s.width + 2 * self.padding - self.kernel) // self.stride + 1
        return TensorShape(self.out_channels, oh, ow)

    def conv_params(self) -> Conv2DParams:
        if self.in_shape is None:
            raise ValueError(f"node {self.name!r}: run Graph.infer_shapes() first")
        return Conv2DParams(
            in_channels=self.in_shape.channels // self.groups,
            in_height=self.in_shape.height,
            in_width=self.in_shape.width,
            out_channels=self.out_channels // self.groups,
            kernel=self.kernel,
            stride=self.stride,
            padding=self.padding,
            name=self.name,
        )

    @property
    def macs(self) -> int:
        # Grouped convolutions run ``groups`` independent smaller convolutions.
        return self.conv_params().macs * self.groups


@dataclass
class DepthwiseConv2DNode(GraphNode):
    """Depthwise convolution (MobileNet); one filter per channel.

    It has no channel reduction, so the mixed-precision dot-product
    instructions do not apply — UNIT leaves it to the vectorised fallback.
    """

    kernel: int = 3
    stride: int = 1
    padding: int = 1
    in_shape: Optional[TensorShape] = None

    @property
    def is_compute_intensive(self) -> bool:
        return True

    def output_shape(self, input_shapes):
        s = input_shapes[0]
        oh = (s.height + 2 * self.padding - self.kernel) // self.stride + 1
        ow = (s.width + 2 * self.padding - self.kernel) // self.stride + 1
        return TensorShape(s.channels, oh, ow)

    @property
    def macs(self) -> int:
        if self.in_shape is None:
            return 0
        out = self.output_shape([self.in_shape])
        return out.elements * self.kernel * self.kernel


@dataclass
class DenseNode(GraphNode):
    out_features: int = 1000
    in_shape: Optional[TensorShape] = None

    @property
    def is_compute_intensive(self) -> bool:
        return True

    def output_shape(self, input_shapes):
        return TensorShape(self.out_features, 1, 1)

    def dense_params(self) -> DenseParams:
        if self.in_shape is None:
            raise ValueError(f"node {self.name!r}: run Graph.infer_shapes() first")
        return DenseParams(
            batch=1,
            in_features=self.in_shape.elements,
            out_features=self.out_features,
            name=self.name,
        )

    @property
    def macs(self) -> int:
        return self.dense_params().macs


@dataclass
class PoolNode(GraphNode):
    kind: str = "max"  # or "avg"
    kernel: int = 3
    stride: int = 2
    padding: int = 0

    def output_shape(self, input_shapes):
        s = input_shapes[0]
        oh = (s.height + 2 * self.padding - self.kernel) // self.stride + 1
        ow = (s.width + 2 * self.padding - self.kernel) // self.stride + 1
        return TensorShape(s.channels, max(oh, 1), max(ow, 1))


@dataclass
class GlobalPoolNode(GraphNode):
    def output_shape(self, input_shapes):
        s = input_shapes[0]
        return TensorShape(s.channels, 1, 1)


@dataclass
class ElementwiseNode(GraphNode):
    kind: str = "relu"  # relu, add, batch_norm, clip, sigmoid ...

    def output_shape(self, input_shapes):
        return input_shapes[0]


@dataclass
class ConcatNode(GraphNode):
    def output_shape(self, input_shapes):
        channels = sum(s.channels for s in input_shapes)
        first = input_shapes[0]
        return TensorShape(channels, first.height, first.width)


@dataclass
class FlattenNode(GraphNode):
    def output_shape(self, input_shapes):
        s = input_shapes[0]
        return TensorShape(s.elements, 1, 1)


@dataclass
class SoftmaxNode(GraphNode):
    def output_shape(self, input_shapes):
        return input_shapes[0]


class Graph:
    """A DAG of operators in topological order."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: List[GraphNode] = []
        self._by_name: Dict[str, GraphNode] = {}
        self._shapes: Dict[str, TensorShape] = {}

    # -- construction ----------------------------------------------------------
    def add(self, node: GraphNode) -> str:
        if node.name in self._by_name:
            raise ValueError(f"duplicate node name {node.name!r} in graph {self.name!r}")
        for dep in node.inputs:
            if dep not in self._by_name:
                raise ValueError(
                    f"node {node.name!r} depends on unknown node {dep!r} "
                    f"(nodes must be added in topological order)"
                )
        self.nodes.append(node)
        self._by_name[node.name] = node
        return node.name

    def node(self, name: str) -> GraphNode:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.nodes)

    # -- analysis ---------------------------------------------------------------
    def infer_shapes(self) -> Dict[str, TensorShape]:
        """Propagate activation shapes and fill each node's ``in_shape``.

        Raises :class:`ValueError` as soon as a node's inferred shape has an
        extent <= 0 (e.g. a model rescaled below what its strides survive).
        """
        shapes: Dict[str, TensorShape] = {}
        for node in self.nodes:
            input_shapes = [shapes[i] for i in node.inputs]
            if input_shapes and hasattr(node, "in_shape"):
                node.in_shape = input_shapes[0]
            shape = node.output_shape(input_shapes)
            if shape.channels <= 0 or shape.height <= 0 or shape.width <= 0:
                raise ValueError(
                    f"graph {self.name!r}: node {node.name!r} has empty output "
                    f"shape {shape} for input shape(s) {input_shapes}"
                )
            shapes[node.name] = shape
        self._shapes = shapes
        return shapes

    def output_shape(self, name: str) -> TensorShape:
        if name not in self._shapes:
            self.infer_shapes()
        return self._shapes[name]

    def compute_nodes(self) -> List[GraphNode]:
        """The compute-intensive operators (convolutions and dense layers)."""
        return [n for n in self.nodes if n.is_compute_intensive]

    def conv_nodes(self) -> List[Conv2DNode]:
        return [n for n in self.nodes if isinstance(n, Conv2DNode)]

    @property
    def total_macs(self) -> int:
        self.infer_shapes()
        return sum(n.macs for n in self.nodes)

    def rebuild(self, nodes: Iterable[GraphNode]) -> "Graph":
        """A new graph (same name) with the given nodes, re-validated."""
        g = Graph(self.name)
        for node in nodes:
            g.add(node)
        g.infer_shapes()
        return g

    def __repr__(self) -> str:
        convs = len(self.conv_nodes())
        return f"Graph({self.name}, {len(self.nodes)} nodes, {convs} convolutions)"


def rescale_input(graph: Graph, height: int, width: Optional[int] = None) -> Graph:
    """A copy of ``graph`` with its input activations resized to H×W.

    Channel counts (and therefore every layer's parameter shapes) are
    unchanged; only the spatial extents shrink or grow through the network.
    Useful for running whole models functionally at tractable sizes — the
    engine-backed :func:`repro.graph.executor.run_model` path — while keeping
    every layer structurally identical to the full-size model.  Nodes are
    shallow-copied, so the original graph's inferred shapes are untouched.
    """
    width = width if width is not None else height
    nodes: List[GraphNode] = []
    for node in graph.nodes:
        node = replace(node)
        if isinstance(node, InputNode):
            node = replace(
                node, shape=TensorShape(node.shape.channels, height, width)
            )
        nodes.append(node)
    return graph.rebuild(nodes)
