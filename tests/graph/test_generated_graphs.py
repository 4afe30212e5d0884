"""Generated graphs: the memory-planned program is byte-equal to the oracle.

A hypothesis strategy builds small graphs from every node kind — random
channel counts, extents, kernels, strides and paddings, grouped
convolutions, fused activations, multi-input ``add`` / ``concat`` — and a
random ``keep`` set.  Each runs through ``run_model`` with the arena and every
staging interior filled with ``0xFF`` bytes (a NaN in float32) beforehand,
and every kept node must hold ``execute_graph``'s bytes in the inferred shape.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    run_model,
)
from repro.tir import Executor
from repro.tir.backend import same_bits

UNARY = ("relu", "clip", "sigmoid", "batch_norm")
KINDS = (
    "conv", "pool", "depthwise", "add", "concat", "dense",
    "unary", "global_pool", "flatten", "softmax", "input",
)
extents = st.integers(1, 6)
shapes = st.builds(TensorShape, st.integers(1, 6), extents, extents)


def _window(draw, shape: TensorShape, max_stride: int):
    """(kernel, stride, padding) with at least one window position."""
    padding = draw(st.integers(0, 2))
    kernel = draw(st.integers(1, min(3, min(shape.height, shape.width) + 2 * padding)))
    return kernel, draw(st.integers(1, max_stride)), padding


@st.composite
def graphs(draw) -> Graph:
    graph = Graph("generated")
    graph.add(InputNode(name="in0", shape=draw(shapes)))
    for index in range(draw(st.integers(1, 7))):
        known = graph.infer_shapes()
        name = f"n{index}"
        source = draw(st.sampled_from(sorted(known)))
        shape = known[source]
        kind = draw(st.sampled_from(KINDS))
        if kind == "input":
            graph.add(InputNode(name=name, shape=draw(shapes)))
            continue
        fused = draw(st.lists(st.sampled_from(UNARY), max_size=2))
        common = dict(name=name, inputs=[source], fused_activations=fused)
        if kind == "conv":
            kernel, stride, padding = _window(draw, shape, 2)
            groups = draw(st.sampled_from([g for g in (2, 3, 1) if shape.channels % g == 0]))
            node = Conv2DNode(
                out_channels=groups * draw(st.integers(1, 3)), kernel=kernel, stride=stride,
                padding=padding, groups=groups, **common,
            )
        elif kind == "depthwise":
            kernel, stride, padding = _window(draw, shape, 2)
            node = DepthwiseConv2DNode(kernel=kernel, stride=stride, padding=padding, **common)
        elif kind == "pool":
            kernel, stride, padding = _window(draw, shape, 3)
            node = PoolNode(
                kind=draw(st.sampled_from(("max", "avg"))), kernel=kernel, stride=stride,
                padding=padding, **common,
            )
        elif kind == "dense":
            node = DenseNode(out_features=draw(st.integers(1, 6)), **common)
        elif kind == "global_pool":
            node = GlobalPoolNode(**common)
        elif kind == "unary":
            node = ElementwiseNode(kind=draw(st.sampled_from(UNARY)), **common)
        elif kind in ("add", "concat"):
            # add: the same shape; concat: the same spatial extents.
            key = (lambda s: s) if kind == "add" else (lambda s: (s.height, s.width))
            alike = sorted(n for n, s in known.items() if key(s) == key(shape))
            common["inputs"] += draw(st.lists(st.sampled_from(alike), min_size=1, max_size=2))
            node = ElementwiseNode(kind="add", **common) if kind == "add" else ConcatNode(**common)
        elif kind == "flatten":
            node = FlattenNode(**common)
        else:
            node = SoftmaxNode(**common)
        graph.add(node)
    return graph


def _poison(program: GraphProgram) -> None:
    for frame in program._idle:
        frame.arena.view(np.uint8)[...] = 0xFF
        for (_, padding, _), staged in frame.staging.items():
            staged[:, padding:-padding, padding:-padding].view(np.uint8)[...] = 0xFF


# A max pool whose window lies wholly in its -inf border yields -inf, and
# later sums of it with +inf make NaN: expected, and the same in both runners.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(graph=graphs(), data=st.data())
def test_program_matches_the_oracle_on_generated_graphs(graph, data):
    names = [node.name for node in graph.nodes]
    keep = data.draw(st.lists(st.sampled_from(names), unique=True), label="keep")
    inferred = graph.infer_shapes()
    rng = np.random.default_rng(0)
    inputs = {
        node.name: rng.standard_normal(
            (node.shape.channels, node.shape.height, node.shape.width)
        ).astype(np.float32)
        for node in graph.nodes
        if isinstance(node, InputNode)
    }
    expected = execute_graph(graph, inputs, rng=np.random.default_rng(1))
    _poison(GraphProgram.for_graph(graph, keep))
    got = run_model(
        graph, inputs, rng=np.random.default_rng(1), keep=keep,
        executor=Executor(tier="vectorized"),
    )
    assert set(got.outputs) == {*keep, names[-1]}
    for name, array in got.outputs.items():
        shape = inferred[name]
        assert array.shape == (shape.channels, shape.height, shape.width), name
        assert same_bits(array, expected[name]), name
