"""``prepare_graph`` output, pinned: 9 zoo models x 3 targets x the four
``(quantize, fuse)`` combinations.

Each case is digested per node (name, type, inputs, dtype,
``fused_activations`` and inferred output shape) and compared with
``fixtures/prepare_graph_digests.json``, recorded from the two separate
quantize and fuse passes that preceded the single graph walk.  Regenerate it
only for an intended change of the passes' output:
``PYTHONPATH=src python tests/graph/test_prepare_pins.py > tests/graph/fixtures/prepare_graph_digests.json``.
"""

import functools
import hashlib
import json
import pathlib

import pytest

from repro.core.pipeline import TARGETS, prepare_graph
from repro.models import EVALUATED_MODELS, get_model

FLAGS = [(True, True), (True, False), (False, True), (False, False)]
FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "prepare_graph_digests.json"


def case_key(model: str, target: str, quantize: bool, fuse: bool) -> str:
    return f"{model}/{target}/q{int(quantize)}f{int(fuse)}"


def graph_digest(graph) -> str:
    shapes = graph.infer_shapes()
    rows = [
        [
            node.name,
            type(node).__name__,
            list(node.inputs),
            node.dtype,
            list(node.fused_activations),
            [shapes[node.name].channels, shapes[node.name].height, shapes[node.name].width],
        ]
        for node in graph.nodes
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def digests() -> dict:
    return {
        case_key(model, target, q, f): graph_digest(
            prepare_graph(get_model(model, fresh=True), target, q, f)
        )
        for model in EVALUATED_MODELS
        for target in TARGETS
        for q, f in FLAGS
    }


@functools.lru_cache(maxsize=None)
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert len(pinned()) == len(EVALUATED_MODELS) * len(TARGETS) * len(FLAGS) == 108


@pytest.mark.parametrize("model", EVALUATED_MODELS)
@pytest.mark.parametrize("target", list(TARGETS))
@pytest.mark.parametrize("quantize,fuse", FLAGS)
def test_prepare_graph_output_pinned(model, target, quantize, fuse):
    graph = get_model(model, fresh=True)
    out = prepare_graph(graph, target, quantize, fuse)
    assert graph_digest(out) == pinned()[case_key(model, target, quantize, fuse)]
    if not (quantize or fuse):
        assert out is graph


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
