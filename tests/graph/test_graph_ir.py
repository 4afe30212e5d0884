"""Tests for the graph IR: construction, shape inference, node metadata."""

import pytest

from repro.graph import (
    ConcatNode,
    Conv2DNode,
    DenseNode,
    ElementwiseNode,
    Graph,
    InputNode,
    PoolNode,
    TensorShape,
)
from repro.models import GraphBuilder


class TestGraphConstruction:
    def test_topological_order_enforced(self):
        g = Graph("g")
        with pytest.raises(ValueError):
            g.add(Conv2DNode(name="c1", inputs=["missing"], out_channels=8, kernel=3))

    def test_duplicate_names_rejected(self):
        g = Graph("g")
        g.add(InputNode(name="data", shape=TensorShape(3, 8, 8)))
        with pytest.raises(ValueError):
            g.add(InputNode(name="data", shape=TensorShape(3, 8, 8)))

    def test_shape_inference_conv_chain(self):
        g = Graph("g")
        g.add(InputNode(name="data", shape=TensorShape(3, 32, 32)))
        g.add(Conv2DNode(name="c1", inputs=["data"], out_channels=16, kernel=3, stride=2, padding=1))
        g.add(PoolNode(name="p1", inputs=["c1"], kind="max", kernel=2, stride=2, padding=0))
        shapes = g.infer_shapes()
        assert shapes["c1"] == TensorShape(16, 16, 16)
        assert shapes["p1"] == TensorShape(16, 8, 8)

    def test_pool_window_larger_than_its_padded_input_is_rejected(self):
        """A 3x3 window on a 2x2 input has no position: ``infer_shapes`` says
        so by name, as it does for convolutions, instead of inferring 1x1
        for an operator whose runners then produce 0x0."""
        g = Graph("g")
        g.add(InputNode(name="data", shape=TensorShape(4, 2, 2)))
        g.add(PoolNode(name="p", inputs=["data"], kind="max", kernel=3, stride=2))
        with pytest.raises(ValueError, match=r"'p' has empty output shape"):
            g.infer_shapes()
        g.node("p").padding = 1
        assert g.infer_shapes()["p"] == TensorShape(4, 1, 1)

    def test_concat_sums_channels(self):
        g = Graph("g")
        g.add(InputNode(name="data", shape=TensorShape(8, 4, 4)))
        g.add(Conv2DNode(name="a", inputs=["data"], out_channels=16, kernel=1))
        g.add(Conv2DNode(name="b", inputs=["data"], out_channels=32, kernel=1))
        g.add(ConcatNode(name="cat", inputs=["a", "b"]))
        assert g.infer_shapes()["cat"].channels == 48

    def test_conv_params_and_macs(self):
        g = Graph("g")
        g.add(InputNode(name="data", shape=TensorShape(8, 16, 16)))
        node = Conv2DNode(name="c", inputs=["data"], out_channels=32, kernel=3, padding=1)
        g.add(node)
        g.infer_shapes()
        params = node.conv_params()
        assert params.in_channels == 8 and params.out_channels == 32
        assert params.out_height == 16
        assert node.macs == 16 * 16 * 32 * 8 * 9

    def test_input_derived_metadata_needs_inferred_shapes(self):
        g = Graph("g")
        g.add(InputNode(name="data", shape=TensorShape(6, 4, 4)))
        conv = Conv2DNode(name="c", inputs=["data"], out_channels=9, kernel=3, groups=3)
        dense = DenseNode(name="fc", inputs=["data"], out_features=5)
        g.add(conv)
        g.add(dense)
        for node, read in (
            (conv, lambda: conv.weight_shape),
            (conv, conv.conv_params),
            (dense, lambda: dense.weight_shape),
            (dense, dense.dense_params),
        ):
            with pytest.raises(ValueError, match=rf"'{node.name}': run Graph.infer_shapes"):
                read()
        g.infer_shapes()
        assert conv.weight_shape == (9, 2, 3, 3)
        assert dense.weight_shape == (5, 96)

    def test_dense_params(self):
        g = Graph("g")
        g.add(InputNode(name="data", shape=TensorShape(512, 1, 1)))
        node = DenseNode(name="fc", inputs=["data"], out_features=1000)
        g.add(node)
        g.infer_shapes()
        assert node.dense_params().in_features == 512
        assert node.macs == 512 * 1000

    def test_compute_nodes_and_total_macs(self):
        builder = GraphBuilder("toy", TensorShape(3, 16, 16))
        builder.conv(8, 3)
        builder.conv(16, 3, stride=2)
        g = builder.classifier(10)
        assert len(g.conv_nodes()) == 2
        assert g.total_macs > 0
        assert len(g.compute_nodes()) >= 3  # two convs + dense
