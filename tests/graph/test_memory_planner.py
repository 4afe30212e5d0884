"""Memory-planned whole-model execution: liveness, reuse, and exactness.

``run_model`` must be numerically identical to ``execute_graph`` while
recycling activation storage through one liveness-planned arena and serving
repeated layer shapes from the executable-plan cache.
"""

import numpy as np
import pytest

from repro.graph import (
    ConcatNode,
    Conv2DNode,
    DenseNode,
    DepthwiseConv2DNode,
    ElementwiseNode,
    FlattenNode,
    GlobalPoolNode,
    Graph,
    InputNode,
    PoolNode,
    SoftmaxNode,
    TensorShape,
    execute_graph,
    plan_memory,
    rescale_input,
    run_model,
)
from repro.tir import Executor


def _mixed_graph() -> Graph:
    """A small model exercising every node kind, branches included."""
    g = Graph("mini")
    g.add(InputNode(name="in", shape=TensorShape(3, 12, 12)))
    g.add(
        Conv2DNode(
            name="c1", inputs=["in"], out_channels=8, kernel=3, stride=1,
            padding=1, fused_activations=["relu"],
        )
    )
    g.add(DepthwiseConv2DNode(name="dw", inputs=["c1"], kernel=3, stride=1, padding=1))
    g.add(PoolNode(name="p1", inputs=["dw"], kind="max", kernel=2, stride=2))
    g.add(Conv2DNode(name="c2", inputs=["p1"], out_channels=8, kernel=1, groups=2))
    g.add(ElementwiseNode(name="add", inputs=["c2", "p1"], kind="add"))
    g.add(ConcatNode(name="cat", inputs=["add", "c2"]))
    g.add(GlobalPoolNode(name="gp", inputs=["cat"]))
    g.add(FlattenNode(name="fl", inputs=["gp"]))
    g.add(DenseNode(name="fc", inputs=["fl"], out_features=10))
    g.add(SoftmaxNode(name="sm", inputs=["fc"]))
    return g


def _chain_graph(depth: int = 6) -> Graph:
    g = Graph("chain")
    g.add(InputNode(name="in", shape=TensorShape(8, 10, 10)))
    prev = "in"
    for i in range(depth):
        prev = g.add(
            Conv2DNode(name=f"conv{i}", inputs=[prev], out_channels=8, kernel=3, padding=1)
        )
    return g


class TestPlanMemory:
    def test_chain_reuses_two_slots(self):
        """A straight chain only ever has producer+consumer live: two slots."""
        plan = plan_memory(_chain_graph(8))
        assert len(plan.slot_bytes) == 2
        assert plan.reuse_ratio > 3.0

    def test_arena_never_larger_than_naive(self):
        for graph in (_mixed_graph(), _chain_graph()):
            plan = plan_memory(graph)
            assert plan.arena_bytes <= plan.naive_bytes
            assert plan.arena_bytes == sum(plan.slot_bytes)
            for name, slot in plan.slot_of.items():  # float32 activations
                assert plan.slot_bytes[slot] >= graph.output_shape(name).elements * 4

    def test_branch_keeps_both_operands_live(self):
        """A node consumed later (p1 feeds both c2 and add) must not have its
        slot recycled in between: producers of concurrent branches get
        distinct slots."""
        plan = plan_memory(_mixed_graph())
        assert plan.slot_of["p1"] != plan.slot_of["c2"]
        assert plan.slot_of["add"] not in (plan.slot_of["p1"], plan.slot_of["c2"])

    def test_duplicate_inputs_release_slot_once(self, rng):
        """A node listing the same input twice (x + x) must not double-free
        its slot — two later live activations would otherwise alias."""
        g = Graph("dup")
        g.add(InputNode(name="in", shape=TensorShape(4, 8, 8)))
        g.add(Conv2DNode(name="c0", inputs=["in"], out_channels=4, kernel=3, padding=1))
        g.add(ElementwiseNode(name="dbl", inputs=["c0", "c0"], kind="add"))
        g.add(Conv2DNode(name="c1", inputs=["dbl"], out_channels=4, kernel=3, padding=1))
        g.add(Conv2DNode(name="c2", inputs=["dbl"], out_channels=4, kernel=3, padding=1))
        g.add(ElementwiseNode(name="out", inputs=["c1", "c2"], kind="add"))
        plan = plan_memory(g)
        assert plan.slot_of["c1"] != plan.slot_of["c2"]
        x = rng.standard_normal((4, 8, 8)).astype(np.float32)
        ref = execute_graph(g, {"in": x}, rng=np.random.default_rng(11))
        got = run_model(g, {"in": x}, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(got.output, ref["out"])

    def test_keep_pins_slots(self):
        g = _chain_graph(4)
        pinned = plan_memory(g, keep=["conv0", "conv1"])
        free_running = plan_memory(g)
        assert pinned.arena_bytes > free_running.arena_bytes

    def test_keep_must_name_nodes_of_the_graph(self, rng):
        """An unknown ``keep`` name used to be pinned silently and surface as
        a bare ``KeyError`` once the whole model had run."""
        g = _chain_graph(2)
        with pytest.raises(ValueError, match=r"'conv9'.*'chain'"):
            plan_memory(g, keep=["conv0", "conv9"])

        class Untouched(Executor):
            def run(self, func, buffers, stats=None):
                raise AssertionError("a node ran before keep was validated")

        x = rng.standard_normal((8, 10, 10)).astype(np.float32)
        with pytest.raises(ValueError, match=r"'conv9'.*'chain'"):
            run_model(g, {"in": x}, keep=["conv9"], executor=Untouched())


class TestRunModel:
    def test_matches_execute_graph_exactly(self, rng):
        g = _mixed_graph()
        x = rng.standard_normal((3, 12, 12)).astype(np.float32)
        ref = execute_graph(g, {"in": x}, rng=np.random.default_rng(3))
        got = run_model(g, {"in": x}, rng=np.random.default_rng(3), keep=["c1", "p1"])
        np.testing.assert_array_equal(got.output, ref["sm"])
        np.testing.assert_array_equal(got.outputs["c1"], ref["c1"])
        np.testing.assert_array_equal(got.outputs["p1"], ref["p1"])

    def test_repeated_layers_hit_the_plan_cache(self):
        from repro.tir import plan_cache

        plan_cache().clear()
        g = _chain_graph(6)
        x = np.random.default_rng(0).standard_normal((8, 10, 10)).astype(np.float32)
        cold = run_model(g, {"in": x}, rng=np.random.default_rng(1))
        assert cold.plan_misses == 1  # six structurally identical convs
        assert cold.plan_hits == 5
        warm = run_model(g, {"in": x}, rng=np.random.default_rng(1))
        assert warm.plan_misses == 0
        assert warm.plan_hit_rate == 1.0
        np.testing.assert_array_equal(cold.output, warm.output)

    def test_steady_runs_reuse_the_lowered_functions(self):
        """Same (operator, shapes, stride) -> the same ``PrimFunc`` object on
        every call, still through the plan cache (hits counted as before);
        ``clear_expr_caches`` drops the memo along with the plans."""
        from repro.dsl.expr import clear_expr_caches
        from repro.tir import plan_cache

        class Recording(Executor):
            def __init__(self):
                super().__init__(tier="vectorized")
                self.funcs = []

            def run(self, func, buffers, stats=None):
                self.funcs.append(func)
                return super().run(func, buffers, stats=stats)

        plan_cache().clear()
        g = _mixed_graph()
        x = np.random.default_rng(0).standard_normal((3, 12, 12)).astype(np.float32)
        first, second = Recording(), Recording()
        cold = run_model(g, {"in": x}, rng=np.random.default_rng(1), executor=first)
        warm = run_model(g, {"in": x}, rng=np.random.default_rng(1), executor=second)
        assert len(first.funcs) == 5  # c1, dw, c2 (two groups), fc
        assert all(a is b for a, b in zip(first.funcs, second.funcs))
        assert first.funcs[2] is first.funcs[3]  # both groups of c2: one lowering
        assert (cold.plan_misses, cold.plan_hits) == (4, 1)
        assert (warm.plan_misses, warm.plan_hits) == (0, 5)
        np.testing.assert_array_equal(cold.output, warm.output)

        clear_expr_caches()
        third = Recording()
        again = run_model(g, {"in": x}, rng=np.random.default_rng(1), executor=third)
        assert not any(a is b for a, b in zip(first.funcs, third.funcs))
        assert again.plan_misses == 4
        np.testing.assert_array_equal(again.output, cold.output)

    def test_racing_threads_share_one_lowering(self):
        import sys
        import threading

        from repro.graph import oracle

        cache = oracle._LoweringCache()
        got, workers = [], 8

        def ask():
            for _ in range(50):
                got.append(cache.get("dense", (6,), (4, 6), 1, "fc")[0])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert len(got) == workers * 50 and all(func is got[0] for func in got)

    def test_scalar_engine_agrees(self, rng):
        g = _chain_graph(2)
        x = rng.standard_normal((8, 10, 10)).astype(np.float32)
        vec = run_model(g, {"in": x}, rng=np.random.default_rng(5))
        sca = run_model(
            g, {"in": x}, rng=np.random.default_rng(5), executor=Executor(tier="interpreter")
        )
        np.testing.assert_array_equal(vec.output, sca.output)

    def test_explicit_weights(self, rng):
        g = _chain_graph(2)
        x = rng.standard_normal((8, 10, 10)).astype(np.float32)
        weights = {
            f"conv{i}": (rng.standard_normal((8, 8, 3, 3)) * 0.1).astype(np.float32)
            for i in range(2)
        }
        ref = execute_graph(g, {"in": x}, weights=dict(weights))
        got = run_model(g, {"in": x}, weights=dict(weights))
        np.testing.assert_array_equal(got.output, ref["conv1"])

    def test_missing_input_raises(self):
        with pytest.raises(KeyError):
            run_model(_chain_graph(1), {})

    def test_run_reports_memory_and_timing(self, rng):
        g = _chain_graph(4)
        x = rng.standard_normal((8, 10, 10)).astype(np.float32)
        result = run_model(g, {"in": x})
        assert result.seconds > 0
        assert result.memory.reuse_ratio > 1.0
        assert result.graph_name == "chain"


class TestRescaleInput:
    def test_rescaled_model_runs_end_to_end(self):
        from repro.models.zoo import get_model

        graph = rescale_input(get_model("resnet-18", fresh=True), 16)
        graph.infer_shapes()
        inp = graph.nodes[0]
        assert inp.shape.height == 16 and inp.shape.width == 16
        x = np.random.default_rng(0).standard_normal((3, 16, 16)).astype(np.float32)
        result = run_model(graph, {inp.name: x}, rng=np.random.default_rng(1))
        assert np.isfinite(result.output).all()
        assert result.memory.reuse_ratio > 2.0

    def test_original_graph_untouched(self):
        from repro.models.zoo import get_model

        graph = get_model("resnet-18", fresh=True)
        graph.infer_shapes()
        before = graph.output_shape(graph.nodes[-1].name)
        small = rescale_input(graph, 32)
        graph.infer_shapes()
        assert graph.output_shape(graph.nodes[-1].name) == before
        assert small.nodes[0].shape.height == 32

    def test_rescaling_below_a_models_strides_raises_at_inference(self):
        """inception-v3 at 32x32 collapses to 1x1 before its last valid-padded
        3x3 conv; that must fail in ``infer_shapes`` naming the node, not as a
        ZeroDivisionError deep inside the cost model."""
        from repro.core import compile_model
        from repro.models.zoo import get_model

        with pytest.raises(ValueError, match=r"conv_87.*height=1, width=1"):
            rescale_input(get_model("inception-v3", fresh=True), 32)
        compiled = compile_model(rescale_input(get_model("resnet-18", fresh=True), 32))
        assert compiled.latency_ms > 0
