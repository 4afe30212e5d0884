"""``GraphProgram``: a graph compiled once, run many times.

``run_model`` builds one program per ``(graph, keep)`` — shapes, memory plan,
arena views, padded staging buffers, lowered functions, buffer dicts — and
every later call reuses it.  What these tests hold it to: the bytes of
``execute_graph`` (the allocate-per-node oracle) on every run, whatever the
arena held before; a rebuild whenever the graph or the interned expressions
changed; weights bound per call, never cached by value; one frame per
concurrent run; and exactly the ``executor.run`` traffic of the per-call loop
it replaced.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import compile_model
from repro.dsl.expr import clear_expr_caches
from repro.graph import (
    ConcatNode,
    Conv2DNode,
    DenseNode,
    DepthwiseConv2DNode,
    ElementwiseNode,
    FlattenNode,
    GlobalPoolNode,
    Graph,
    GraphProgram,
    InputNode,
    PoolNode,
    SoftmaxNode,
    TensorShape,
    execute_graph,
    rescale_input,
    run_model,
)
from repro.models.zoo import EVALUATED_MODELS, get_model
from repro.rewriter import TuningSession
from repro.telemetry import metrics, trace
from repro.tir import Executor, native_toolchain, plan_cache, tier_state

HAS_TOOLCHAIN = native_toolchain()[0] is not None
needs_toolchain = pytest.mark.skipif(not HAS_TOOLCHAIN, reason="no native toolchain (C compiler)")


def _every_kind() -> Graph:
    """Every node kind and every padded-staging flavour: zero and ``-inf``
    borders, two convolutions sharing one staging buffer, a grouped one."""
    g = Graph("kinds")
    g.add(InputNode(name="in", shape=TensorShape(4, 10, 10)))
    g.add(
        Conv2DNode(
            name="c1", inputs=["in"], out_channels=8, kernel=3, padding=1,
            fused_activations=["batch_norm", "relu"],
        )
    )
    g.add(DepthwiseConv2DNode(name="dw", inputs=["c1"], kernel=3, stride=1, padding=1))
    g.add(ElementwiseNode(name="clip", inputs=["dw"], kind="clip"))
    g.add(Conv2DNode(name="c2", inputs=["clip"], out_channels=8, kernel=3, padding=1))
    g.add(ElementwiseNode(name="add", inputs=["c2", "c1", "dw"], kind="add"))
    g.add(PoolNode(name="mp", inputs=["add"], kind="max", kernel=3, stride=2, padding=1))
    g.add(PoolNode(name="ap", inputs=["add"], kind="avg", kernel=3, stride=2, padding=1))
    g.add(Conv2DNode(name="cg", inputs=["mp"], out_channels=8, kernel=1, groups=2))
    g.add(ElementwiseNode(name="sig", inputs=["ap"], kind="sigmoid"))
    g.add(ElementwiseNode(name="bn", inputs=["sig"], kind="batch_norm"))
    g.add(ConcatNode(name="cat", inputs=["cg", "bn"]))
    g.add(GlobalPoolNode(name="gp", inputs=["cat"]))
    g.add(FlattenNode(name="fl", inputs=["gp"]))
    g.add(DenseNode(name="fc", inputs=["fl"], out_features=10))
    g.add(SoftmaxNode(name="sm", inputs=["fc"]))
    return g


def _chain(depth: int = 3) -> Graph:
    g = Graph("chain")
    g.add(InputNode(name="in", shape=TensorShape(8, 10, 10)))
    prev = "in"
    for i in range(depth):
        prev = g.add(
            Conv2DNode(name=f"conv{i}", inputs=[prev], out_channels=8, kernel=3, padding=1)
        )
    return g


def _image(graph: Graph, seed: int = 0):
    entry = graph.nodes[0]
    shape = (entry.shape.channels, entry.shape.height, entry.shape.width)
    return {entry.name: np.random.default_rng(seed).standard_normal(shape).astype(np.float32)}


def _conv_weights(graph: Graph, seed: int):
    rng = np.random.default_rng(seed)
    return {
        node.name: (rng.standard_normal((8, 8, 3, 3)) * 0.1).astype(np.float32)
        for node in graph.conv_nodes()
    }


def _same_bytes(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


class _Counting(Executor):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.funcs = []

    def run(self, func, buffers, stats=None):
        self.funcs.append(func)
        return super().run(func, buffers, stats=stats)


def _zoo_at_32():
    """Every zoo model a 32x32 input does not shrink to nothing
    (inception-v3 does not survive it)."""
    graphs = {}
    for name in EVALUATED_MODELS:
        try:
            graphs[name] = rescale_input(get_model(name, fresh=True), 32)
        except ValueError:
            pass
    return graphs


ZOO_AT_32 = _zoo_at_32()


class TestMatchesTheOracle:
    @pytest.mark.parametrize("model", ZOO_AT_32)
    def test_zoo_model_first_run_new_input_and_promoted(self, model):
        """First run (every kernel's first execution qualifies and promotes
        it, where there is a compiler), a second run on a different image,
        and the first image again once everything is native."""
        graph = ZOO_AT_32[model]
        final = graph.nodes[-1].name
        kept = graph.node(final).inputs[0]
        images = [_image(graph, 1), _image(graph, 2)]
        oracle = [execute_graph(graph, image, rng=np.random.default_rng(7)) for image in images]
        executor = Executor(promote_after=1)
        for image, expected in zip(images + images[:1], oracle + oracle[:1]):
            got = run_model(
                graph, image, rng=np.random.default_rng(7), keep=[kept], executor=executor
            )
            _same_bytes(got.outputs[kept], expected[kept])
            _same_bytes(got.output, expected[final])
        assert executor.stats.native_demotions == 0
        if HAS_TOOLCHAIN:
            assert executor.stats.native_runs > 0

    @pytest.mark.parametrize(
        "tier",
        ["interpreter", "vectorized", pytest.param("native", marks=needs_toolchain)],
    )
    def test_nothing_survives_from_an_earlier_occupant_or_run(self, tier):
        """No step relies on what its output held before: with the whole
        arena and every staging interior NaN before each run (the borders
        are the program's to keep), the bytes are still the oracle's — the
        lowered functions store their own identity, nobody zero-fills."""
        graph = _every_kind()
        keep = ["mp", "fc"]
        executor = Executor(tier=tier, promote_after=1)
        program = GraphProgram.for_graph(graph, keep)
        for seed in (1, 2, 1):
            (frame,) = program._idle
            frame.arena[:] = np.nan
            for (_, padding, _), staged in frame.staging.items():
                staged[:, padding:-padding, padding:-padding] = np.nan
            image = _image(graph, seed)
            expected = execute_graph(graph, image, rng=np.random.default_rng(3))
            got = run_model(
                graph, image, rng=np.random.default_rng(3), keep=keep, executor=executor
            )
            assert GraphProgram.for_graph(graph, keep) is program
            for name in ("mp", "fc", "sm"):
                _same_bytes(got.outputs[name], expected[name])
        # c1's zero border; one more for dw, c2 and the average pool; max's -inf.
        assert len(frame.staging) == 3
        if tier == "native":
            assert executor.stats.native_runs > 0 and executor.stats.native_demotions == 0

    def test_kept_outputs_are_copies(self):
        graph = _chain()
        first = run_model(graph, _image(graph, 1), keep=["conv0"])
        snapshot = first.outputs["conv0"].copy()
        run_model(graph, _image(graph, 2), keep=["conv0"])
        np.testing.assert_array_equal(first.outputs["conv0"], snapshot)


class TestBuiltOnceRebuiltWhenStale:
    def test_reused_across_calls_and_per_keep(self):
        graph = _chain()
        program = GraphProgram.for_graph(graph)
        run_model(graph, _image(graph))
        run_model(graph, _image(graph, 1), executor=Executor(tier="interpreter"))
        assert GraphProgram.for_graph(graph) is program
        pinned = GraphProgram.for_graph(graph, ["conv0"])
        assert pinned is not program
        assert GraphProgram.for_graph(graph, ("conv0",)) is pinned
        assert GraphProgram.for_graph(graph) is program

    def test_rebuilt_after_the_graph_grows(self):
        graph = _chain(2)
        image = _image(graph)
        program = GraphProgram.for_graph(graph)
        assert run_model(graph, image).output.shape == (8, 10, 10)
        graph.add(PoolNode(name="pool", inputs=["conv1"], kind="max", kernel=2, stride=2))
        assert not program.describes(graph)
        got = run_model(graph, image)
        _same_bytes(got.output, execute_graph(graph, image)["pool"])
        assert GraphProgram.for_graph(graph) is not program

    def test_rebuilt_after_a_node_is_edited_in_place(self):
        graph = _chain(2)
        image = _image(graph)
        before = run_model(graph, image).output
        program = GraphProgram.for_graph(graph)
        graph.node("conv1").fused_activations.append("relu")
        got = run_model(graph, image).output
        assert GraphProgram.for_graph(graph) is not program
        _same_bytes(got, np.maximum(before, 0.0))
        program = GraphProgram.for_graph(graph)
        graph.node("conv0").stride = 2
        _same_bytes(run_model(graph, image).output, execute_graph(graph, image)["conv1"])
        assert GraphProgram.for_graph(graph) is not program

    def test_rescaled_copy_has_its_own_program(self):
        graph = _chain(2)
        program = GraphProgram.for_graph(graph)
        small = rescale_input(graph, 6)
        got = run_model(small, _image(small))
        assert got.output.shape == (8, 6, 6)
        assert GraphProgram.for_graph(small) is not program
        assert GraphProgram.for_graph(graph) is program

    def test_rebuilt_after_clear_expr_caches(self):
        graph = _chain(2)
        image = _image(graph)
        first, second = _Counting(tier="vectorized"), _Counting(tier="vectorized")
        before = run_model(graph, image, executor=first)
        program = GraphProgram.for_graph(graph)
        clear_expr_caches()
        after = run_model(graph, image, executor=second)
        assert GraphProgram.for_graph(graph) is not program
        assert not any(a is b for a, b in zip(first.funcs, second.funcs))
        _same_bytes(after.output, before.output)

    def test_program_does_not_keep_its_graph_alive(self):
        graph = _chain(1)
        run_model(graph, _image(graph))
        alive = weakref.ref(graph)
        del graph
        gc.collect()
        assert alive() is None


class TestWeightsAreBoundPerCall:
    def test_replaced_and_mutated_arrays_are_both_picked_up(self):
        graph = _chain(2)
        image = _image(graph)
        weights = _conv_weights(graph, 5)

        def check():
            expected = execute_graph(graph, image, weights=dict(weights))["conv1"]
            _same_bytes(run_model(graph, image, weights=weights).output, expected)
            return expected

        first = check()
        weights["conv0"] = _conv_weights(graph, 6)["conv0"]  # a new array
        second = check()
        weights["conv1"] *= np.float32(0.5)  # the same array, new contents
        third = check()
        assert first.tobytes() != second.tobytes() != third.tobytes()

    def test_converted_weights_are_not_cached_by_value(self):
        """A float64 parameter is converted on every call, so editing it in
        place shows, exactly as with one bound uncopied."""
        graph = _chain(1)
        image = _image(graph)
        weights = {"conv0": _conv_weights(graph, 5)["conv0"].astype(np.float64)}
        before = run_model(graph, image, weights=weights).output
        weights["conv0"][...] = 0.0
        after = run_model(graph, image, weights=weights).output
        assert before.any() and not after.any()

    def test_missing_weights_are_drawn_per_call_and_never_stored(self):
        graph = _chain(2)
        image = _image(graph)
        weights = {"conv1": _conv_weights(graph, 5)["conv1"]}
        runs = [
            run_model(graph, image, weights=weights, rng=np.random.default_rng(seed)).output
            for seed in (1, 2, 1)
        ]
        assert list(weights) == ["conv1"]
        assert runs[0].tobytes() != runs[1].tobytes()
        _same_bytes(runs[2], runs[0])
        expected = execute_graph(graph, image, weights=dict(weights), rng=np.random.default_rng(1))
        _same_bytes(runs[0], expected["conv1"])

    def test_wrong_shape_still_raises(self):
        graph = _chain(1)
        with pytest.raises(ValueError, match="conv0.*expected"):
            run_model(graph, _image(graph), weights={"conv0": np.zeros((8, 8, 1, 1), np.float32)})
        with pytest.raises(ValueError, match="input 'in' has shape"):
            run_model(graph, {"in": np.zeros((8, 9, 9), np.float32)})
        # A failed run hands its frame back: the next one is unaffected.
        image = _image(graph)
        _same_bytes(run_model(graph, image).output, execute_graph(graph, image)["conv0"])
        assert len(GraphProgram.for_graph(graph)._idle) == 1


class TestConcurrentRuns:
    def test_four_threads_on_one_graph_all_match(self):
        graph = _every_kind()
        images = [_image(graph, seed) for seed in range(4)]
        expected = [execute_graph(graph, image, rng=np.random.default_rng(9)) for image in images]
        executor = Executor(tier="vectorized")
        program = GraphProgram.for_graph(graph)
        wrong, rounds = [], 12

        def work(index: int) -> None:
            for _ in range(rounds):
                got = run_model(
                    graph, images[index], rng=np.random.default_rng(9), executor=executor
                )
                if got.output.tobytes() != expected[index]["sm"].tobytes():
                    wrong.append(index)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert not wrong
        assert GraphProgram.for_graph(graph) is program
        # One frame per run that was in flight at once, each handed back.
        assert 1 <= len(program._idle) <= 4
        assert len({id(frame.arena) for frame in program._idle}) == len(program._idle)


class TestEveryNodeStillGoesThroughTheExecutor:
    @pytest.fixture(scope="class")
    def resnet(self):
        graph = rescale_input(get_model("resnet-18", fresh=True), 32)
        return compile_model(graph, target="x86", session=TuningSession())

    def test_one_executor_call_per_compute_node(self, resnet):
        image = _image(resnet.graph)
        resnet.run(image, executor=Executor(tier="vectorized"))  # plans compiled
        counting = _Counting(tier="vectorized")
        run = counting.run_model(resnet, image)
        assert len(counting.funcs) == 21
        assert (run.plan_hits, run.plan_misses) == (21, 0)
        run = counting.run_model(resnet, image)
        assert len(counting.funcs) == 42 and run.plan_hits == 21

    def test_mobilenet_makes_53_calls(self):
        graph = rescale_input(get_model("mobilenet-v2", fresh=True), 32)
        compiled = compile_model(graph, target="x86", session=TuningSession())
        counting = _Counting(tier="vectorized")
        compiled.run(_image(compiled.graph), executor=counting)
        assert len(counting.funcs) == 53

    @needs_toolchain
    def test_raising_kernel_demotes_its_plan_and_the_run_is_still_right(self, monkeypatch):
        graph = _chain(2)
        image = _image(graph)
        expected = execute_graph(graph, image, rng=np.random.default_rng(4))["conv1"]
        plan_cache().clear()
        executor = _Counting(promote_after=1)
        run_model(graph, image, rng=np.random.default_rng(4), executor=executor)
        state = tier_state(plan_cache().get_or_compile(executor.funcs[0]))
        assert state.tier == "native"

        def boom(arrays):
            arrays[-1][...] = np.nan  # a kernel that dies mid-write
            raise RuntimeError("injected kernel failure")

        monkeypatch.setattr(state.kernel, "run", boom)
        got = run_model(graph, image, rng=np.random.default_rng(4), executor=executor)
        _same_bytes(got.output, expected)
        assert state.demoted and "injected kernel failure" in state.demotion_reason
        assert executor.stats.native_demotions == 1
        _same_bytes(
            run_model(graph, image, rng=np.random.default_rng(4), executor=executor).output,
            expected,
        )


class TestTelemetry:
    def test_builds_reuses_and_the_build_span(self):
        graph = _chain(2)
        image = _image(graph)
        with metrics.collecting() as registry, trace.tracing() as tracer:
            run_model(graph, image)
            run_model(graph, image)
            run_model(graph, image)
            graph.node("conv1").fused_activations.append("relu")
            run_model(graph, image)
        counters = registry.counters()
        assert counters["graph.program_builds"] == 2
        assert counters["graph.program_reuses"] == 2
        spans = [s for s in tracer.finished() if s.name == "graph.program_build"]
        assert len(spans) == 2
        memory = GraphProgram.for_graph(graph).memory
        assert spans[0].attrs == {
            "graph": "chain",
            "nodes": 3,
            "arena_bytes": memory.arena_bytes,
            "staging_bytes": 8 * 12 * 12 * 4,
        }

    def test_silent_when_telemetry_is_off(self):
        assert metrics.active() is None and trace.active() is None
        graph = _chain(1)
        run_model(graph, _image(graph))
        assert metrics.snapshot_counters() == {}
