"""One reading of a loop nest, one proof per function.

``repro.tir.visitor.Nest`` is where the accumulation form, the parallel /
reduction split and the injectivity of a nest's written index are derived;
the static passes, the plan compiler and the C emitter consume it.  The
fixture (``fixtures/nest_reading_parent.json``) holds what the four private
matchers the reading replaced — ``engine._match_accumulation``,
``dtypes._accumulator_rest``, ``overlap._accumulator_read`` and the emitter's
``_reduction_nest`` — returned, nest by nest, at the commit before they were
deleted, over every function the repository produces; the adversarial cases
pin the places where the consumers must *disagree* about the same reading
(the engine folds a commuted sum, the emitter must not tile it).
"""

import json
import pathlib

import numpy as np
import pytest

from repro.analysis import analyze, bounds, structure
from repro.analysis.interval import loop_env
from repro.analysis.overlap import _accumulator_index
from repro.codegen import lowlevel
from repro.codegen.lowlevel import generate_c
from repro.core import tensorize
from repro.dsl import compute, placeholder, reduce_axis, sum_reduce
from repro.dsl import expr as E
from repro.graph import GraphProgram
from repro.graph import oracle
from repro.models.zoo import EVALUATED_MODELS, get_model
from repro.schedule import create_schedule
from repro.tir import (
    Executor,
    For,
    IntrinsicCall,
    PrimFunc,
    SeqStmt,
    Store,
    Unvectorizable,
    alloc_buffers,
    compile_native,
    compile_plan,
    lower,
    native_toolchain,
)
from repro.tir.visitor import iter_nests, read_nest
from repro.workloads import conv2d_gemm, conv2d_nchwc
from repro.workloads.table1 import TABLE1_LAYERS
from tests.conftest import small_conv_hwc

FIXTURE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "nest_reading_parent.json").read_text()
)
HAVE_CC = native_toolchain()[0] is not None

OPERATORS = {
    "vpdpbusd": ("x86.avx512.vpdpbusd", lambda p: conv2d_nchwc(p, lanes=16, reduction=4)),
    "sdot": (
        "arm.neon.sdot",
        lambda p: conv2d_nchwc(p, lanes=4, reduction=4, in_dtype="int8", weight_dtype="int8"),
    ),
    "wmma": ("nvvm.wmma.m16n16k16.mma.row.row.f32.f32", conv2d_gemm),
}


def _produced(key, monkeypatch):
    """The functions behind one fixture key: ``L<n>.<instruction>`` is that
    Table I layer tensorized, anything else a zoo model's distinct lowerings."""
    if key.startswith("L") and "." in key:
        layer, instruction = key[1:].split(".")
        intrinsic, build = OPERATORS[instruction]
        return [tensorize(build(TABLE1_LAYERS[int(layer) - 1]), intrinsic).func]
    seen = {}
    real_get = oracle._LOWERINGS.get

    def recording_get(*args, **kwargs):
        entry = real_get(*args, **kwargs)
        seen[id(entry[0])] = entry[0]
        return entry

    monkeypatch.setattr(oracle._LOWERINGS, "get", recording_get)
    GraphProgram(get_model(key, fresh=True))
    return list(seen.values())


def _tiles(func, monkeypatch):
    """(parallel, reduction) loop extents of every nest the emitter tiles."""
    tiled = []
    real = lowlevel._CEmitter._accumulator_tiles

    def spy(self, parallel, reduction, store):
        tiled.append([[loop.extent for loop in parallel], [loop.extent for loop in reduction]])
        return real(self, parallel, reduction, store)

    monkeypatch.setattr(lowlevel._CEmitter, "_accumulator_tiles", spy)
    try:
        generate_c(func)
    except lowlevel.LoweringError:
        return None
    return tiled


def _as_the_deleted_matchers_answered(func, monkeypatch):
    """The shared reading, phrased the way the fixture recorded the parent."""
    rows = []
    for nest in iter_nests(func):
        row = {
            "kind": type(nest.body).__name__,
            "extents": [extent for _, extent in nest.axes],
            "accumulator_read": _accumulator_index(nest) is not None,
        }
        if isinstance(nest.body, Store):
            acc = nest.accumulation
            form = acc and ["a" if acc.rest is nest.body.value.a else "b", acc.combiner]
            row["dtypes"] = form
            if nest.carried:
                row["engine"] = "raise: " + (
                    "store reads its target tensor beyond the accumulator"
                    if acc
                    else "store value reads its target tensor (not an accumulation)"
                )
            else:
                row["engine"] = form
            assert acc is None or acc.load_is_left == (form[0] == "b")
        if isinstance(nest.body, (Store, IntrinsicCall)):
            row["reduction"] = list(nest.reduction)
            assert sorted(nest.parallel + nest.reduction) == list(range(len(nest.axes)))
        rows.append(row)
    return {"nests": rows, "tiled": _tiles(func, monkeypatch)}


@pytest.mark.parametrize("key", sorted(FIXTURE))
def test_reading_reproduces_the_deleted_matchers(key, monkeypatch):
    funcs = _produced(key, monkeypatch)
    assert len(funcs) == len(FIXTURE[key])
    for func, expected in zip(funcs, FIXTURE[key]):
        assert _as_the_deleted_matchers_answered(func, monkeypatch) == expected, func.name


def test_fixture_covers_the_ledger_operators_and_the_zoo():
    assert {k for k in FIXTURE if k[0] == "L" and "." in k} == {
        f"L{n}.{i}" for n in range(1, 17) for i in OPERATORS
    }
    assert set(FIXTURE) - {f"L{n}.{i}" for n in range(1, 17) for i in OPERATORS} == set(
        EVALUATED_MODELS
    )


# -- where the consumers must read the same facts differently -----------------


def _dense(n_in=5, n_out=6):
    data = placeholder((n_in,), "float32", "data")
    wt = placeholder((n_out, n_in), "float32", "weight")
    rk = reduce_axis(0, n_in, "rk")
    return compute((n_out,), lambda j: sum_reduce(data[rk] * wt[j, rk], rk), name="dense")


def _update_nest(func):
    node = func.body.stmts[-1]
    loops = []
    while isinstance(node, For):
        loops.append(node)
        node = node.body
    return loops, node


def _with_update(func, loops, innermost):
    body = innermost
    for loop in reversed(loops):
        body = For(loop.var, loop.extent, body)
    return PrimFunc(func.name, func.params, SeqStmt([*func.body.stmts[:-1], body]), func.op)


def _buffers(func, seed=0):
    return alloc_buffers(func, np.random.default_rng(seed))


def _assert_tiers_match_interpreter(func):
    expected = Executor(tier="interpreter").run(func, _buffers(func))
    assert compile_plan(func).run(_buffers(func)).tobytes() == expected.tobytes()
    if HAVE_CC:
        bufs = _buffers(func)
        got = compile_native(func).run([bufs[t] for t in func.params])
        assert got.tobytes() == expected.tobytes()


class TestOneReadingManyPolicies:
    def test_commuted_accumulation_folds_but_is_not_tiled(self):
        """``t[i] = e + t[i]``: a fold to the engine, whose fold order is the
        loop order either way; not a tile to the emitter, whose tile writes
        ``acc (op) e`` — the operand order decides which NaN survives."""
        func = lower(_dense())
        loops, store = _update_nest(func)
        commuted = _with_update(
            func, loops, Store(store.tensor, store.indices, E.Add(store.value.b, store.value.a))
        )
        nest = list(iter_nests(commuted))[-1]
        assert nest.accumulation.rest is store.value.b
        assert nest.accumulation.load_is_left is False and not nest.carried
        plan = compile_plan(commuted, strict=True)
        assert [type(s).__name__ for s in plan.steps] == ["_PlainStoreStep", "_AccumStoreStep"]
        assert generate_c(commuted).tiled_nests == 0
        assert generate_c(func).tiled_nests == 1  # the control: as lowered, it tiles
        _assert_tiers_match_interpreter(commuted)

    def test_rest_rereading_the_target_is_carried(self):
        """``t[j] = t[j] + (e + t[(j+1) % n])``: the accumulation form matches,
        the rest re-reads ``t`` — Unvectorizable to the engine, untiled in C."""
        func = lower(_dense())
        loops, store = _update_nest(func)
        (j,) = store.indices
        neighbour = E.TensorLoad(store.tensor, [(j + 1) % 6])
        carried = _with_update(
            func,
            loops,
            Store(store.tensor, store.indices, E.Add(store.value.a, store.value.b + neighbour)),
        )
        nest = list(iter_nests(carried))[-1]
        assert nest.accumulation is not None and nest.carried
        with pytest.raises(Unvectorizable, match="beyond the accumulator"):
            compile_plan(carried, strict=True)
        plan = compile_plan(carried)
        assert plan.stats.fallback_nests == 1
        assert generate_c(carried).tiled_nests == 0
        _assert_tiers_match_interpreter(carried)

    def test_aliasing_index_is_injective_only_below_the_aliasing_loop(self, monkeypatch):
        """``out[y + x]`` over 3 x 4: not injective over ``(y, x)``; with ``y``
        a parameter, injective over ``x`` — so the emitter tiles one level down."""
        data = placeholder((3, 4, 5), "float32", "data")
        rk = reduce_axis(0, 5, "rk")
        func = lower(compute((3, 4), lambda y, x: sum_reduce(data[y, x, rk], rk), name="alias"))
        loops, store = _update_nest(func)
        y, x = store.indices
        out = placeholder((6,), "float32", "folded")
        value = E.TensorLoad(out, [y + x]) + store.value.b
        body = For(y, 3, For(x, 4, For(loops[2].var, 5, Store(out, [y + x], value))))
        func = PrimFunc("alias", [data, out], body, func.op)
        whole = read_nest(func.body)
        assert whole.parallel == (0, 1) and whole.reduction == (2,)
        assert not whole.injective()
        below = read_nest(func.body.body)
        assert below.parallel == (0,) and below.injective(loop_env([(y, 3)]))
        assert _tiles(func, monkeypatch) == [[[4], [5]]]

    def test_likely_guarded_ragged_split_stays_serial(self):
        out = _dense(5, 6)
        sch = create_schedule(out)
        sch.stage.split(sch.stage[out.op.axes[0]], 4)  # 6 % 4 != 0 -> residue guard
        func = lower(sch)
        update = list(iter_nests(func))[-1]
        assert update.guards and update.accumulation is not None
        assert generate_c(func).tiled_nests == 0
        _assert_tiers_match_interpreter(func)


# -- proved once ----------------------------------------------------------------


class TestProvedOnce:
    def test_each_check_runs_once_across_tensorize_analyze_compile_plan(self, monkeypatch):
        proved, verified = [], []
        real_bounds, real_structure = bounds.check_nest_bounds, structure.verify_structure

        def counting_bounds(nest):
            proved.append(nest)
            return real_bounds(nest)

        def counting_structure(func):
            verified.append(func)
            return real_structure(func)

        monkeypatch.setattr(bounds, "check_nest_bounds", counting_bounds)
        monkeypatch.setattr(structure, "verify_structure", counting_structure)

        func = tensorize(small_conv_hwc(), "x86.avx512.vpdpbusd").func
        report = analyze(func)
        plan = compile_plan(func)

        nests = list(iter_nests(func))
        assert len(nests) == 2 and [id(n) for n in proved] == [id(n) for n in nests]
        assert verified == [func]
        assert analyze(func) is report
        assert plan.stats.proved_nests == report.proved_nests == 2

    def test_a_function_nobody_analysed_pays_for_the_bounds_pass_only(self):
        func = lower(_dense())
        plan = compile_plan(func)
        assert plan.stats.proved_nests == 2
        assert {"nests", "bounds"} <= set(func._facts)
        assert not {"structure", "overlap", "dtype", "report"} & set(func._facts)
