"""Native kernels run one proved loop per nest across threads.

``generate_c`` runs the outermost loop of a nest whose iterations provably
write disjoint outputs through ``repro_for`` (the host's thread pool, or
serially without one): the outermost tile loop of a reduction-update nest,
and the outermost loop of a nest ending in one plain store or one
instruction call whose writes the overlap analysis proves disjoint.  Each
output element is still written by one thread in its own fold order, so the
bytes must not depend on the thread count; every loop without a proof stays
serial, whatever the schedule marked it.
"""

import re

import numpy as np
import pytest

from repro.codegen.lowlevel import generate_c
from repro.core import tensorize
from repro.dsl import compute, expr as E, placeholder
from repro.graph import rescale_input, run_model
from repro.graph.ir import InputNode
from repro.models.zoo import get_model
from repro.tir import Executor, backend, compile_native, lower, native_toolchain
from repro.tir.lower import PrimFunc
from repro.tir.stmt import For, ForKind, Store
from repro.workloads import conv2d_nchwc
from repro.workloads.table1 import TABLE1_LAYERS
from tests.codegen.test_accumulator_tiling import _Recording, buffers_for, dense, untiled_variants

TOOLCHAIN_KIND = native_toolchain()[0]
needs_toolchain = pytest.mark.skipif(
    TOOLCHAIN_KIND is None, reason="no native toolchain (C compiler)"
)
THREADED = "repro_for(repro_pool, "


def threaded_loops(source):
    """``(loop variable, iterations)`` of every loop the source runs across
    threads, in source order."""
    names = re.findall(r"void repro_part\d+\(int64_t (\w+),", source.source)
    counts = re.findall(r"repro_for\(repro_pool, repro_task\d+, (\d+),", source.source)
    assert len(names) == len(counts) == source.parallel_loops
    return [(name, int(count)) for name, count in zip(names, counts)]


def update_only(func: PrimFunc) -> PrimFunc:
    """``func`` without its init nest: only the update nest can be marked."""
    return PrimFunc(func.name, func.params, func.body.stmts[-1], func.op)


def same_bytes_at_any_thread_count(kernel, arrays, monkeypatch):
    """Run ``kernel`` on one thread and on every CPU (at least two, so the
    threaded path runs on a one-CPU host too); the outputs are the same bytes."""
    outputs = []
    for threads in (1, max(2, backend._width())):
        monkeypatch.setattr(backend, "_THREADS", threads)
        outputs.append(kernel.run([a.copy() for a in arrays]).tobytes())
    assert outputs[0] == outputs[1], kernel.source.func_name
    return outputs[0]


# -- which loops are marked ------------------------------------------------------


class TestMarkedLoops:
    def test_reduction_nest_runs_its_outermost_tile_loop_across_threads(self):
        source = generate_c(lower(dense(16, 64)))
        # The init nest (a plain store over 64 outputs) and the update nest's
        # tile loop over 64 / 8 chains.
        assert source.parallel_loops == 2
        assert threaded_loops(source) == [("v_dense_i0", 64), ("tile1", 8)]
        assert "void repro_kernel(void* repro_pool, " in source.source

    @pytest.mark.parametrize("why", sorted(untiled_variants()))
    def test_an_update_nest_without_a_tile_stays_serial(self, why):
        """What ``_reduction_nest`` refuses (an aliasing store index among
        them) is an update that reads its own output: no loop of it runs
        across threads."""
        source = generate_c(update_only(untiled_variants()[why]()))
        assert source.parallel_loops == 0 and THREADED not in source.source

    def test_an_unmodified_update_nest_is_threaded_when_its_tile_loop_repeats(self):
        """The control of the cases above.  Six outputs make one tile of six
        chains: the tile loop has one iteration and stays serial.  Sixteen
        make two iterations, and the loop runs across threads."""
        assert generate_c(update_only(lower(dense(4, 6)))).parallel_loops == 0
        assert generate_c(update_only(lower(dense(4, 16)))).parallel_loops == 1

    def _copy(self, index, kind=ForKind.SERIAL):
        """``out[index(j)] = data[j]`` over ``j < 6``."""
        data = placeholder((6,), "float32", "data")
        base = lower(compute((6,), lambda i: data[i], name="copy"))
        loop, store = base.body, base.body.body
        body = For(loop.var, 6, Store(store.tensor, [index(loop.var)], store.value), kind=kind)
        return PrimFunc("copy", base.params, body, base.op)

    def test_a_plain_store_with_distinct_addresses_is_threaded(self):
        assert generate_c(self._copy(lambda j: j)).parallel_loops == 1
        assert generate_c(self._copy(lambda j: (j % 3) * 2 + j // 3)).parallel_loops == 1

    @pytest.mark.parametrize("kind", [ForKind.SERIAL, ForKind.PARALLEL])
    @pytest.mark.parametrize(
        "index",
        [lambda j: j // 2, lambda j: j % 3, lambda j: E.Const(0)],
        ids=["j // 2", "j % 3", "0"],
    )
    def test_a_store_whose_iterations_share_an_address_stays_serial(self, index, kind):
        """Two iterations write one element (or the address does not move
        with the loop): serial even where the schedule marked it parallel."""
        assert generate_c(self._copy(index, kind)).parallel_loops == 0

    def test_table1_bands_are_threaded(self):
        """Every Table I layer: the init nest and the instruction band under
        the schedule's fused parallel loop."""
        for index, layer in enumerate(TABLE1_LAYERS, 1):
            func = tensorize(conv2d_nchwc(layer), "x86.avx512.vpdpbusd").func
            source = generate_c(func)
            assert source.parallel_loops == 2, index
            (band,) = [s for s in func.body.stmts if isinstance(s, For) and s.kind is ForKind.PARALLEL]
            assert threaded_loops(source)[1][1] == band.extent, index


# -- bytes at one thread and at every CPU ----------------------------------------


@needs_toolchain
class TestSameBytesAtAnyThreadCount:
    def test_table1_layers(self, monkeypatch):
        rng = np.random.default_rng(0)
        for index, layer in enumerate(TABLE1_LAYERS, 1):
            func = tensorize(conv2d_nchwc(layer), "x86.avx512.vpdpbusd").func
            if backend.instruction_support_reason(func):
                pytest.skip(backend.instruction_support_reason(func))
            kernel = compile_native(func)
            assert kernel.source.parallel_loops == 2, index
            arrays = [
                rng.integers(-128, 128, t.shape).astype(t.dtype.np_dtype) for t in func.params
            ]
            same_bytes_at_any_thread_count(kernel, arrays, monkeypatch)

    @pytest.mark.parametrize("model", ["resnet-18", "mobilenet-v2"])
    def test_graph_kernels(self, model, monkeypatch):
        """Every kernel a 32x32 run executes, against the vectorized tier too."""
        graph = rescale_input(get_model(model, fresh=True), 32)
        graph.infer_shapes()
        entry = next(n for n in graph.nodes if isinstance(n, InputNode))
        image = np.zeros((entry.shape.channels, 32, 32), dtype=np.float32)
        recorder = _Recording()
        run_model(graph, {entry.name: image}, executor=recorder)
        assert len(recorder.funcs) >= 12
        seen = set()
        for func in recorder.funcs.values():
            # Layers of one shape differ only in names: build each shape once.
            shape = tuple((t.shape, t.dtype.name) for t in func.params)
            if shape in seen:
                continue
            seen.add(shape)
            kernel = compile_native(func)
            assert kernel.source.parallel_loops >= 1, func.name
            buffers = buffers_for(func, seed=len(seen))
            with np.errstate(all="ignore"):
                expected = Executor(tier="vectorized").run(
                    func, {t: a.copy() for t, a in buffers.items()}
                )
            got = same_bytes_at_any_thread_count(
                kernel, [buffers[t] for t in func.params], monkeypatch
            )
            assert got == expected.tobytes(), func.name

    def test_a_host_without_the_pool_runs_serial_kernels(self, monkeypatch):
        """Where the pool library does not build, ``_pool()`` hands the
        kernel no pool and ``repro_for`` runs every threaded loop on the
        calling thread: the same bytes as the interpreter's."""
        func = lower(dense(16, 64))
        buffers = buffers_for(func, seed=5)
        with np.errstate(all="ignore"):
            expected = Executor(tier="interpreter").run(func, {t: a.copy() for t, a in buffers.items()})
        kernel = compile_native(func)
        assert kernel.source.parallel_loops == 2
        monkeypatch.setattr(backend, "_POOL", None)
        monkeypatch.setattr(backend, "_POOL_SOURCE", "#error this host has no pool\n")
        monkeypatch.setattr(backend, "_THREADS", max(2, backend._width()))
        assert backend._pool() is None
        assert backend._POOL == (None, 0)
        got = kernel.run([buffers[t] for t in func.params])
        assert got.tobytes() == expected.tobytes()
