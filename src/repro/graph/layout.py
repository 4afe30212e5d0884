"""Layout transformation and padding pass (Section V-C).

The CPU models use the blocked ``NCHW[x]c`` activation layout and the
``KCRS[y]k[x]c`` weight layout, where ``[x]`` equals the instruction's output
lane count and ``[y]`` its reduction width; channel counts are padded up to
multiples of the block sizes so the tensorized loops tile perfectly (the
Inspector/Rewriter rely on this — Section II-C.1 notes the analysis depends on
graph-level tensor padding).

The pass records, per convolution/dense node, the padded channel counts and
the resulting fraction of wasted lanes, which the cost models account for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .ir import Conv2DNode, DenseNode, Graph

__all__ = ["LayoutDecision", "plan_layout", "padding_waste"]


@dataclass(frozen=True)
class LayoutDecision:
    """The blocked layout chosen for one operator."""

    node_name: str
    lanes: int  # [x]: output-channel block = instruction output lanes
    reduction: int  # [y]: input-channel block = instruction reduction width
    in_channels: int
    out_channels: int
    padded_in_channels: int
    padded_out_channels: int

    @property
    def layout(self) -> str:
        return f"NCHW{self.lanes}c"

    @property
    def weight_layout(self) -> str:
        return f"KCRS{self.reduction}k{self.lanes}c"

    @property
    def wasted_output_fraction(self) -> float:
        return 1.0 - self.out_channels / self.padded_out_channels


def plan_layout(graph: Graph, lanes: int = 16, reduction: int = 4) -> Dict[str, LayoutDecision]:
    """Choose the blocked layout for every convolution/dense node of ``graph``."""
    graph.infer_shapes()
    decisions: Dict[str, LayoutDecision] = {}
    for node in graph.nodes:
        if isinstance(node, Conv2DNode):
            params = node.conv_params()
            decisions[node.name] = LayoutDecision(
                node_name=node.name,
                lanes=lanes,
                reduction=reduction,
                in_channels=params.in_channels,
                out_channels=params.out_channels,
                padded_in_channels=_round_up(params.in_channels, reduction),
                padded_out_channels=_round_up(params.out_channels, lanes),
            )
        elif isinstance(node, DenseNode):
            params = node.dense_params()
            decisions[node.name] = LayoutDecision(
                node_name=node.name,
                lanes=lanes,
                reduction=reduction,
                in_channels=params.in_features,
                out_channels=params.out_features,
                padded_in_channels=_round_up(params.in_features, reduction),
                padded_out_channels=_round_up(params.out_features, lanes),
            )
    return decisions


def padding_waste(decisions: Dict[str, LayoutDecision]) -> float:
    """Aggregate fraction of padded (wasted) output lanes across the graph."""
    if not decisions:
        return 0.0
    total = sum(d.padded_out_channels for d in decisions.values())
    useful = sum(d.out_channels for d in decisions.values())
    return 1.0 - useful / total


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple
