"""Tests for the graph-level passes: quantization, layout planning, fusion."""

import dataclasses

import pytest

from repro.graph import (
    Conv2DNode,
    ElementwiseNode,
    TensorShape,
    fuse_elementwise,
    padding_waste,
    plan_layout,
    quantize_graph,
    rewrite_graph,
)
from repro.models import GraphBuilder, get_model


def _toy_graph():
    builder = GraphBuilder("toy", TensorShape(3, 32, 32))
    builder.conv(30, 3)  # 30 channels: will need padding to 32
    builder.conv(64, 3, stride=2)
    return builder.classifier(10)


class TestQuantize:
    def test_int8_dtype_propagated(self):
        g = quantize_graph(_toy_graph(), "int8")
        convs = g.conv_nodes()
        assert convs and all(c.dtype == "int8" for c in convs)
        kinds = [n.kind for n in g.nodes if isinstance(n, ElementwiseNode)]
        assert "quantize" in kinds and "dequantize" in kinds

    def test_fp16_mode(self):
        g = quantize_graph(_toy_graph(), "float16")
        assert all(c.dtype == "float16" for c in g.conv_nodes())

    def test_invalid_dtype(self):
        with pytest.raises(ValueError):
            quantize_graph(_toy_graph(), "int4")

    def test_macs_preserved(self):
        g = _toy_graph()
        q = quantize_graph(g, "int8")
        assert q.total_macs == g.total_macs


class TestLayout:
    def test_padding_to_lane_multiples(self):
        g = _toy_graph()
        decisions = plan_layout(g, lanes=16, reduction=4)
        padded = [d for d in decisions.values() if d.out_channels == 30]
        assert padded and padded[0].padded_out_channels == 32
        assert padded[0].layout == "NCHW16c"
        assert padded[0].weight_layout == "KCRS4k16c"
        assert 0 < padding_waste(decisions) < 0.2

    def test_arm_lane_width(self):
        decisions = plan_layout(_toy_graph(), lanes=4, reduction=4)
        assert all(d.padded_out_channels % 4 == 0 for d in decisions.values())

    def test_no_waste_when_divisible(self):
        builder = GraphBuilder("even", TensorShape(16, 8, 8))
        builder.conv(32, 3)
        g = builder.classifier(16)
        decisions = plan_layout(g, lanes=16, reduction=4)
        conv_decision = [d for d in decisions.values() if d.out_channels == 32][0]
        assert conv_decision.wasted_output_fraction == 0.0


class TestFusion:
    def test_elementwise_folded_into_conv(self):
        g = _toy_graph()
        fused = fuse_elementwise(g)
        assert len(fused) < len(g)
        convs = fused.conv_nodes()
        assert any("relu" in c.fused_activations for c in convs)
        assert any("batch_norm" in c.fused_activations for c in convs)

    def test_resnet_residual_adds_fused(self):
        g = get_model("resnet-18", fresh=True)
        fused = fuse_elementwise(g)
        # Fusion removes a large fraction of the elementwise nodes.
        before = sum(1 for n in g.nodes if isinstance(n, ElementwiseNode))
        after = sum(1 for n in fused.nodes if isinstance(n, ElementwiseNode))
        assert after < before * 0.5

    def test_fusion_preserves_macs_and_shapes(self):
        g = _toy_graph()
        fused = fuse_elementwise(g)
        assert fused.total_macs == g.total_macs
        assert fused.infer_shapes()[fused.nodes[-1].name] == g.infer_shapes()[g.nodes[-1].name]


def _nodes(graph):
    return [(type(n).__name__, dataclasses.asdict(n)) for n in graph.nodes]


class TestOneWalk:
    @pytest.mark.parametrize("dtype", ["int8", "float16"])
    @pytest.mark.parametrize("model", ["resnet-18", "inception-v3", "mobilenet-v2"])
    def test_is_the_two_passes_composed(self, model, dtype):
        g = get_model(model, fresh=True)
        one = rewrite_graph(g, dtype, fuse=True)
        assert _nodes(one) == _nodes(fuse_elementwise(quantize_graph(g, dtype)))

    def test_input_graph_untouched(self):
        g = get_model("resnet-18", fresh=True)
        before = _nodes(g)
        rewrite_graph(g, "int8", fuse=True)
        assert _nodes(g) == before

    def test_final_dequantize_fuses_into_a_trailing_dense(self):
        builder = GraphBuilder("headless", TensorShape(3, 8, 8))
        builder.conv(16, 3)
        builder.global_pool()
        builder.dense(10)
        g = builder.finish()
        fused = rewrite_graph(g, "int8", fuse=True)
        assert "final_dequantize" not in fused
        assert fused.nodes[-1].fused_activations == ["dequantize"]
        assert "final_dequantize" in quantize_graph(g, "int8")
