"""Tests for the graph latency executor."""

import pytest

from repro.graph import TensorShape, estimate_graph_latency
from repro.hwsim import CostBreakdown
from repro.models import GraphBuilder


class _CountingRunner:
    """A stub runner that charges fixed costs and records calls."""

    def __init__(self):
        self.conv_calls = 0
        self.dense_calls = 0
        self.elementwise_calls = 0

    def conv2d_latency(self, params):
        self.conv_calls += 1
        return CostBreakdown(seconds=10e-6)

    def dense_latency(self, params):
        self.dense_calls += 1
        return CostBreakdown(seconds=5e-6)

    def elementwise_latency(self):
        self.elementwise_calls += 1
        return CostBreakdown(seconds=1e-6)


def _toy_graph():
    builder = GraphBuilder("toy", TensorShape(3, 32, 32))
    builder.conv(16, 3)
    builder.conv(32, 3, stride=2)
    builder.depthwise(3)
    return builder.classifier(10)


class TestExecutor:
    def test_total_is_sum_of_nodes(self):
        runner = _CountingRunner()
        graph = _toy_graph()
        report = estimate_graph_latency(graph, runner)
        assert runner.conv_calls == 2
        assert runner.dense_calls == 1
        assert report.total_seconds == pytest.approx(
            sum(c.seconds for c in report.per_node.values())
        )
        assert report.total_seconds > 25e-6
        assert report.graph_name == "toy"

    def test_per_node_report_and_slowest(self):
        runner = _CountingRunner()
        report = estimate_graph_latency(_toy_graph(), runner)
        slowest = report.slowest_nodes(2)
        assert len(slowest) == 2
        assert all(name in report.per_node for name in slowest)

    def test_depthwise_uses_runner_hook_when_available(self):
        class WithDepthwise(_CountingRunner):
            def __init__(self):
                super().__init__()
                self.depthwise_calls = 0

            def depthwise_conv2d_latency(self, node):
                self.depthwise_calls += 1
                return CostBreakdown(seconds=2e-6)

        runner = WithDepthwise()
        estimate_graph_latency(_toy_graph(), runner)
        assert runner.depthwise_calls == 1

    def test_input_nodes_are_free(self):
        runner = _CountingRunner()
        report = estimate_graph_latency(_toy_graph(), runner)
        assert report.per_node["data"].seconds == 0.0


class TestFunctionalExecution:
    """execute_graph: the vectorized engine as the graph-level oracle."""

    def _graph(self):
        import numpy as np

        from repro.graph import (
            Conv2DNode,
            DenseNode,
            ElementwiseNode,
            FlattenNode,
            GlobalPoolNode,
            Graph,
            InputNode,
            PoolNode,
            SoftmaxNode,
        )

        g = Graph("tiny")
        g.add(InputNode(name="in", shape=TensorShape(3, 12, 12)))
        g.add(Conv2DNode(name="c1", inputs=["in"], out_channels=8, kernel=3, padding=1))
        g.add(ElementwiseNode(name="r1", inputs=["c1"], kind="relu"))
        g.add(PoolNode(name="p1", inputs=["r1"], kind="max", kernel=2, stride=2))
        g.add(GlobalPoolNode(name="gp", inputs=["p1"]))
        g.add(FlattenNode(name="fl", inputs=["gp"]))
        g.add(DenseNode(name="fc", inputs=["fl"], out_features=5))
        g.add(SoftmaxNode(name="sm", inputs=["fc"]))
        return g

    def test_engine_matches_scalar_interpreter(self):
        import numpy as np

        from repro.graph import execute_graph
        from repro.tir import Executor

        g = self._graph()
        x = np.random.default_rng(0).standard_normal((3, 12, 12)).astype(np.float32)
        outs_v = execute_graph(g, {"in": x}, rng=np.random.default_rng(7))
        outs_s = execute_graph(
            g, {"in": x}, rng=np.random.default_rng(7), executor=Executor(tier="interpreter")
        )
        assert set(outs_v) == {n.name for n in g.nodes}
        for name in outs_v:
            assert np.array_equal(outs_v[name], outs_s[name]), name

    def test_conv_matches_einsum_reference(self):
        import numpy as np

        from repro.graph import execute_graph

        g = self._graph()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 12, 12)).astype(np.float32)
        w = rng.standard_normal((8, 3, 3, 3)).astype(np.float32)
        outs = execute_graph(g, {"in": x}, weights={"c1": w}, rng=np.random.default_rng(2))
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        ref = np.zeros((8, 12, 12), dtype=np.float32)
        for y in range(12):
            for c in range(12):
                patch = xp[:, y : y + 3, c : c + 3].astype(np.float64)
                ref[:, y, c] = np.einsum("crs,kcrs->k", patch, w.astype(np.float64))
        assert np.allclose(outs["c1"], ref, rtol=1e-4, atol=1e-5)
        assert np.allclose(outs["sm"].sum(), 1.0, rtol=1e-5)

    def test_softmax_and_pool_semantics(self):
        import numpy as np

        from repro.graph import execute_graph

        g = self._graph()
        x = np.random.default_rng(3).standard_normal((3, 12, 12)).astype(np.float32)
        outs = execute_graph(g, {"in": x}, rng=np.random.default_rng(4))
        relu = outs["r1"]
        assert (relu >= 0).all()
        pooled = outs["p1"]
        assert pooled.shape == (8, 6, 6)
        # max pooling dominates every window element
        assert (pooled >= relu[:, ::2, ::2]).all()

    def test_missing_input_raises(self):
        import pytest as _pytest

        from repro.graph import execute_graph

        with _pytest.raises(KeyError):
            execute_graph(self._graph(), {})
