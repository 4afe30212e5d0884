"""Register-tiled reduction nests keep every element's fold order.

``generate_c`` emits a reduction-update nest (``out[i] = out[i] + e`` under
reduction loops under data-parallel loops) over a tile of accumulators: the
reduction loops run in their original order, the tile's elements side by
side.  Each element must still see the same operands in the same order, so
every kernel here is held byte-for-byte against the scalar interpreter — at
extents the tile does and does not divide, on values whose sums are order-
and representation-sensitive, and starting from an output buffer that is not
zero.  Shapes the emitter cannot show to be regroupable must come out as the
plain serial nest, and still match.
"""

import hashlib
import re

import numpy as np
import pytest

from repro.codegen.lowlevel import generate_c
from repro.core import tensorize
from repro.dsl import compute, expr as E, placeholder, reduce_axis, sum_reduce
from repro.graph import rescale_input, run_model
from repro.graph.ir import InputNode
from repro.models.zoo import get_model
from repro.tir import Executor, backend, lower, native_toolchain
from repro.tir.lower import PrimFunc
from repro.tir.stmt import For, IfThenElse, SeqStmt, Store
from repro.workloads import conv2d_nchwc
from repro.workloads.table1 import TABLE1_LAYERS
from tests.conftest import build_kernel

TOOLCHAIN_KIND = native_toolchain()[0]
needs_toolchain = pytest.mark.skipif(
    TOOLCHAIN_KIND is None, reason="no native toolchain (C compiler)"
)


# -- operators (the graph executor's lowerings, any dtype) ----------------------


def conv(c_in, c_out, kernel, stride, oh, ow, dtype="float32", accumulate=False):
    h, w = (oh - 1) * stride + kernel, (ow - 1) * stride + kernel
    data = placeholder((c_in, h, w), dtype, "data")
    wt = placeholder((c_out, c_in, kernel, kernel), dtype, "weight")
    rc, rr, rs = (reduce_axis(0, n, name) for n, name in ((c_in, "rc"), (kernel, "r"), (kernel, "s")))
    return compute(
        (c_out, oh, ow),
        lambda k, y, x: sum_reduce(
            data[rc, y * stride + rr, x * stride + rs] * wt[k, rc, rr, rs], [rc, rr, rs]
        ),
        name="conv",
        accumulate=accumulate,
    )


def depthwise(channels, kernel, stride, oh, ow, dtype="float32", accumulate=False):
    h, w = (oh - 1) * stride + kernel, (ow - 1) * stride + kernel
    data = placeholder((channels, h, w), dtype, "data")
    wt = placeholder((channels, kernel, kernel), dtype, "weight")
    rr, rs = reduce_axis(0, kernel, "r"), reduce_axis(0, kernel, "s")
    return compute(
        (channels, oh, ow),
        lambda c, y, x: sum_reduce(
            data[c, y * stride + rr, x * stride + rs] * wt[c, rr, rs], [rr, rs]
        ),
        name="depthwise",
        accumulate=accumulate,
    )


def dense(n_in, n_out, dtype="float32", accumulate=False):
    data = placeholder((n_in,), dtype, "data")
    wt = placeholder((n_out, n_in), dtype, "weight")
    rk = reduce_axis(0, n_in, "rk")
    return compute(
        (n_out,), lambda j: sum_reduce(data[rk] * wt[j, rk], rk), name="dense", accumulate=accumulate
    )


# -- values and builds ----------------------------------------------------------


def awkward_values(rng, shape, dtype) -> np.ndarray:
    """Values that expose a reordered or re-represented sum: magnitudes
    spread over many binades, and (floats) NaN, both infinities, -0.0 and
    denormals sprinkled in.

    The NaN is the one this host's arithmetic itself produces (``inf - inf``
    meets ``inf * 0`` in these sums): which operand's payload a NaN + NaN
    keeps is the compiler's choice of operand order, not a fold order, and
    with one payload in play the comparison can stay byte-for-byte."""
    dtype = np.dtype(dtype)
    if dtype.kind == "i":
        # Wraparound territory: products overflow int32 within a few terms.
        return rng.integers(-(2**20), 2**20, size=shape).astype(dtype)
    values = (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)).astype(dtype)
    flat = values.reshape(-1)
    tiny = np.finfo(dtype).smallest_subnormal
    with np.errstate(invalid="ignore"):
        host_nan = dtype.type(np.inf) - dtype.type(np.inf)
    specials = [host_nan, np.inf, -np.inf, -0.0, tiny, -3 * tiny, np.finfo(dtype).tiny / 2]
    where = rng.choice(flat.size, size=min(flat.size, len(specials)), replace=False)
    flat[where] = specials[: len(where)]
    return values


def buffers_for(func: PrimFunc, seed: int):
    rng = np.random.default_rng(seed)
    return {t: awkward_values(rng, t.shape, t.dtype.np_dtype) for t in func.params}


def assert_host_build_matches_interpreter(func, tmp_path, seed=0):
    """``func``'s source, built with the flags kernels are really built with,
    reproduces the interpreter's output bytes — from a pre-filled output
    buffer."""
    source = generate_c(func)
    buffers = buffers_for(func, seed)
    with np.errstate(all="ignore"):
        expected = Executor(tier="interpreter").run(func, {t: a.copy() for t, a in buffers.items()})
    kernel = build_kernel(source, backend.cc_flags(), tmp_path, "host")
    got = kernel.run([buffers[p].copy() for p in func.params])
    assert got.tobytes() == expected.tobytes(), f"host build of {func.name}"
    return source


def tile_bodies(source) -> int:
    """Accumulator tiles in the emitted text (one per full/remainder combination)."""
    return len(re.findall(r"^ *\w+ acc\d+\[\d+\];$", source.source, flags=re.MULTILINE))


# Channels 1, 3, 8, 20 and widths 1, 2, 5, 16, 17 on both sides of the tile
# (8 chains x 16 lanes): (operator, arguments, tile bodies = 2 ** split loops).
OPERATORS = {
    "conv3x3_c3_k20_2x17": (conv, (3, 20, 3, 1, 2, 17), 4),
    "conv3x3_c2_k8_5x5": (conv, (2, 8, 3, 1, 5, 5), 2),
    "conv3x3_c3_k1_1x1": (conv, (3, 1, 3, 1, 1, 1), 1),
    "conv3x3_c1_k3_3x2": (conv, (1, 3, 3, 1, 3, 2), 1),
    "conv1x1_c8_k3_2x16": (conv, (8, 3, 1, 1, 2, 16), 1),
    "conv1x1_c20_k20_1x2": (conv, (20, 20, 1, 1, 1, 2), 2),
    "conv7x7s2_c3_k8_2x5": (conv, (3, 8, 7, 2, 2, 5), 1),
    "conv7x7s2_c1_k20_3x17": (conv, (1, 20, 7, 2, 3, 17), 4),
    "depthwise3x3_c20_3x17": (depthwise, (20, 3, 1, 3, 17), 4),
    "depthwise3x3s2_c8_2x2": (depthwise, (8, 3, 2, 2, 2), 1),
    "depthwise3x3_c3_1x1": (depthwise, (3, 3, 1, 1, 1), 1),
    "depthwise3x3_c1_5x16": (depthwise, (1, 3, 1, 5, 16), 1),
    "dense_7_1000": (dense, (7, 1000), 1),
    "dense_5_20": (dense, (5, 20), 2),
    "dense_3_1": (dense, (3, 1), 1),
    "dense_17_3": (dense, (17, 3), 1),
    "dense_16_8": (dense, (16, 8), 1),
}


@needs_toolchain
class TestTiledKernelsMatchInterpreter:
    @pytest.mark.parametrize("case", sorted(OPERATORS))
    def test_float32(self, case, tmp_path):
        make, args, bodies = OPERATORS[case]
        source = assert_host_build_matches_interpreter(lower(make(*args)), tmp_path)
        assert source.tiled_nests == 1
        assert tile_bodies(source) == bodies

    @pytest.mark.parametrize("dtype", ["float64", "int32"])
    @pytest.mark.parametrize(
        "case", ["conv3x3_c3_k20_2x17", "conv7x7s2_c3_k8_2x5", "depthwise3x3_c20_3x17", "dense_5_20"]
    )
    def test_other_accumulator_types(self, case, dtype, tmp_path):
        make, args, _ = OPERATORS[case]
        source = assert_host_build_matches_interpreter(lower(make(*args, dtype=dtype)), tmp_path, seed=1)
        assert source.tiled_nests == 1

    @pytest.mark.parametrize("dtype", ["float32", "float64", "int32"])
    @pytest.mark.parametrize(
        "case", ["conv3x3_c2_k8_5x5", "conv1x1_c20_k20_1x2", "depthwise3x3_c20_3x17", "dense_7_1000"]
    )
    def test_tile_loads_a_prefilled_output(self, case, dtype, tmp_path):
        """``accumulate=True`` lowers to the update nest alone: the result
        depends on what the output buffer held, which is not zero."""
        make, args, _ = OPERATORS[case]
        func = lower(make(*args, dtype=dtype, accumulate=True))
        assert isinstance(func.body, For)  # no init nest ahead of the update nest
        source = assert_host_build_matches_interpreter(func, tmp_path, seed=2)
        assert source.tiled_nests == 1


# -- nests that must not be tiled -----------------------------------------------


def update_nest(func: PrimFunc):
    """The loops and the store of ``func``'s reduction-update nest."""
    node = func.body.stmts[-1]
    loops = []
    while isinstance(node, For):
        loops.append(node)
        node = node.body
    assert isinstance(node, Store)
    return loops, node


def rebuilt(func: PrimFunc, loops, innermost) -> PrimFunc:
    """``func`` with its update nest replaced by ``loops`` around ``innermost``."""
    body = innermost
    for loop in reversed(loops):
        body = For(loop.var, loop.extent, body)
    return PrimFunc(func.name, func.params, SeqStmt([*func.body.stmts[:-1], body]), func.op)


def untiled_variants():
    def reads_a_neighbour():
        func = lower(dense(4, 6))
        loops, store = update_nest(func)
        (j,) = store.indices
        neighbour = E.TensorLoad(store.tensor, [(j + 1) % 6])
        return rebuilt(func, loops, Store(store.tensor, store.indices, store.value + neighbour))

    def indexed_by_a_reduction_variable():
        # out[(j + rk) % 6] += ...: both loops move the address.
        func = lower(dense(4, 6))
        loops, store = update_nest(func)
        (j,), rk = store.indices, loops[-1].var
        index = [(j + rk) % 6]
        value = E.TensorLoad(store.tensor, index) + store.value.b
        return rebuilt(func, loops, Store(store.tensor, index, value))

    def guarded_body():
        func = lower(dense(4, 6))
        loops, store = update_nest(func)
        guard = E.Compare("<", loops[0].var, E.Const(5))
        return rebuilt(func, loops, IfThenElse(guard, store, likely=True))

    def aliasing_offsets():
        # out[j // 2] += ...: iterations 0 and 1 of the only loop are one element.
        func = lower(dense(4, 6))
        loops, store = update_nest(func)
        index = [store.indices[0] // 2]
        value = E.TensorLoad(store.tensor, index) + store.value.b
        return rebuilt(func, loops, Store(store.tensor, index, value))

    return {
        "value reads the output at another index": reads_a_neighbour,
        "store index uses a reduction variable": indexed_by_a_reduction_variable,
        "likely-guarded body": guarded_body,
        "two tile offsets alias": aliasing_offsets,
    }


class TestUnrecognisedNestsStaySerial:
    @pytest.mark.parametrize("why", sorted(untiled_variants()))
    def test_no_accumulator_tile(self, why, tmp_path):
        func = untiled_variants()[why]()
        source = generate_c(func)
        assert source.tiled_nests == 0 and tile_bodies(source) == 0
        if TOOLCHAIN_KIND is not None:
            assert_host_build_matches_interpreter(func, tmp_path, seed=3)

    def test_aliasing_loop_stays_serial_around_the_tile(self, tmp_path):
        """``out[y + x]`` over a 3 x 4 band: (0, 1) and (1, 0) are one
        element, so the band as a whole keeps its order — ``y`` stays a
        serial loop and only the ``x`` iterations under it, which are
        distinct, fold side by side."""
        data = placeholder((3, 4, 5), "float32", "data")
        rk = reduce_axis(0, 5, "rk")
        func = lower(compute((3, 4), lambda y, x: sum_reduce(data[y, x, rk], rk), name="alias"))
        loops, store = update_nest(func)
        y, x = store.indices
        out = placeholder((6,), "float32", "folded")
        value = E.TensorLoad(out, [y + x]) + store.value.b
        body = For(y, 3, For(x, 4, For(loops[2].var, 5, Store(out, [y + x], value))))
        func = PrimFunc("alias", [data, out], body, func.op)
        source = generate_c(func)
        assert source.tiled_nests == 1
        assert re.search(r"for \(int64_t v_\w+ = 0; v_\w+ < 3; .*\n +for \(int64_t tile", source.source)
        assert re.search(r"float acc\d+\[4\];", source.source)
        if TOOLCHAIN_KIND is not None:
            assert_host_build_matches_interpreter(func, tmp_path, seed=4)

    def test_the_same_dense_nest_unmodified_is_tiled(self):
        """The control of the negative cases above."""
        assert generate_c(lower(dense(4, 6))).tiled_nests == 1


# -- what the models and Table I get --------------------------------------------


class _Recording(Executor):
    def __init__(self):
        super().__init__(tier="vectorized")
        self.funcs = {}

    def run(self, func, buffers, stats=None):
        self.funcs[id(func)] = func
        return super().run(func, buffers, stats=stats)


class TestEmittedText:
    @pytest.mark.parametrize("model", ["resnet-18", "mobilenet-v2"])
    def test_every_graph_kernel_is_tiled(self, model):
        graph = rescale_input(get_model(model, fresh=True), 32)
        graph.infer_shapes()
        entry = next(n for n in graph.nodes if isinstance(n, InputNode))
        image = np.zeros((entry.shape.channels, 32, 32), dtype=np.float32)
        recorder = _Recording()
        run_model(graph, {entry.name: image}, executor=recorder)
        assert len(recorder.funcs) >= 12
        for func in recorder.funcs.values():
            source = generate_c(func)
            assert source.tiled_nests == 1, func

    def test_flags_still_forbid_contraction_and_reassociation(self):
        """The tile is only order-preserving while the compiler is."""
        assert "-ffp-contract=off" in backend._CC_FLAGS
        assert not [f for f in backend._CC_FLAGS if "fast" in f or "associative" in f or "unsafe" in f]

    def test_table1_intrinsic_sources_are_unchanged(self):
        """A ``likely``-guarded intrinsic band is neither a reduction-update
        nest nor a register tile: the 6 guarded full-size Table I sources
        (layers 1, 4 and 14) are byte-for-byte what the emitter wrote before
        the intrinsic band learned to tile, except for three later changes:
        the entry point's thread pool, each threaded loop's body moved into
        a static function that ``repro_for`` calls, and C division of
        non-negative indices (digest taken after them).  Every unguarded
        one is exactly one register tile."""
        layouts = {
            "x86.avx512.vpdpbusd": dict(),
            "x86.avx512.vpdpwssd": dict(reduction=2, in_dtype="int16", weight_dtype="int16"),
        }
        digest = hashlib.sha256()
        for name in sorted(layouts):
            for index, layer in enumerate(TABLE1_LAYERS, 1):
                source = generate_c(tensorize(conv2d_nchwc(layer, **layouts[name]), name).func)
                if index in (1, 4, 14):
                    assert source.tiled_nests == 0
                    digest.update(source.source.encode())
                else:
                    assert source.tiled_nests == 1, (name, index)
        assert digest.hexdigest() == (
            "02449552cac3c1ffd7112966125ccb1c433deba83842f91f30b19e0ab1a57f4c"
        )
