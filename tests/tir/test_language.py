"""The tensor-IR language: what producers emit, what every tier refuses.

``repro.analysis.structure.TIR_EXPR_KINDS`` declares the expression kinds a
``PrimFunc`` body may hold.  The closure test walks every function the
repository produces (Table I through ``tensorize``, the zoo through the graph
executor's lowerings) so a producer that starts emitting a new kind fails
here, before the interpreter, the engine and the emitter disagree about it;
the adversarial tests pin that a program outside the language is refused by
the verifier *and* by each tier — none of them computes a value.
"""

import numpy as np
import pytest

from repro.analysis import analyze
from repro.analysis.structure import TIR_EXPR_KINDS
from repro.codegen.lowlevel import LoweringError, generate_c
from repro.core import tensorize
from repro.dsl import cast, compute, placeholder, reduce_axis, sum_reduce
from repro.dsl.expr import Const, Expr, Reduce, Var, post_order
from repro.dsl.tensor import Tensor
from repro.graph import GraphProgram
from repro.graph import executor as graph_executor
from repro.isa.intrinsic import TensorIntrinsic
from repro.models.zoo import EVALUATED_MODELS, get_model
from repro.rewriter import CpuTuningConfig
from repro.tir import (
    Allocate,
    AttrStmt,
    Executor,
    For,
    IfThenElse,
    Interpreter,
    IntrinsicCall,
    PrimFunc,
    SeqStmt,
    Store,
    Unvectorizable,
    VerificationError,
    alloc_buffers,
    collect,
    compile_plan,
    run,
    verify,
    walk,
)
from repro.workloads import conv2d_gemm, conv2d_nchwc
from repro.workloads.table1 import TABLE1_LAYERS

TIR_STMT_KINDS = {For, SeqStmt, IfThenElse, AttrStmt, Allocate, Store, IntrinsicCall}

OPERATORS = {
    "vpdpbusd": ("x86.avx512.vpdpbusd", lambda p: conv2d_nchwc(p, lanes=16, reduction=4)),
    "sdot": (
        "arm.neon.sdot",
        lambda p: conv2d_nchwc(p, lanes=4, reduction=4, in_dtype="int8", weight_dtype="int8"),
    ),
    "wmma": ("nvvm.wmma.m16n16k16.mma.row.row.f32.f32", conv2d_gemm),
}


def _table1_funcs(layer, instruction):
    intrinsic, build = OPERATORS[instruction]
    return [tensorize(build(TABLE1_LAYERS[layer]), intrinsic).func]


def _zoo_funcs(model, monkeypatch):
    """Every distinct function the graph executor lowers for ``model``."""
    seen = {}
    real_get = graph_executor._LOWERINGS.get

    def recording_get(*args, **kwargs):
        entry = real_get(*args, **kwargs)
        seen[id(entry[0])] = entry[0]
        return entry

    monkeypatch.setattr(graph_executor._LOWERINGS, "get", recording_get)
    GraphProgram(get_model(model, fresh=True))
    return list(seen.values())


def _expressions(func):
    for stmt in walk(func.body):
        assert type(stmt) in TIR_STMT_KINDS, type(stmt).__name__
        if isinstance(stmt, Store):
            yield from stmt.indices
            yield stmt.value
        elif isinstance(stmt, IfThenElse):
            yield stmt.condition
        elif isinstance(stmt, IntrinsicCall):
            for binding in list(stmt.inputs) + [stmt.output]:
                yield from binding.program_indices
                yield from binding.intrin_indices


PRODUCERS = [
    pytest.param("table1", layer, instruction, id=f"L{layer + 1}-{instruction}")
    for layer in range(len(TABLE1_LAYERS))
    for instruction in OPERATORS
] + [pytest.param("zoo", model, None, id=model) for model in EVALUATED_MODELS]


@pytest.mark.parametrize("source, which, instruction", PRODUCERS)
def test_every_produced_function_stays_inside_the_language(
    source, which, instruction, monkeypatch
):
    funcs = _table1_funcs(which, instruction) if source == "table1" else _zoo_funcs(which, monkeypatch)
    assert funcs
    for func in funcs:
        for expr in _expressions(func):
            foreign = {type(n).__name__ for n in post_order(expr) if type(n) not in TIR_EXPR_KINDS}
            assert not foreign, f"{func.name}: {foreign} in {expr}"
        verify(func)


# -- programs outside the language -------------------------------------------


class _Foreign(Expr):
    """An expression kind no tier knows."""

    def __init__(self, inner):
        self.inner = inner
        self.dtype = inner.dtype

    @property
    def children(self):
        return (self.inner,)


def _reduce_valued_store():
    a = placeholder((4, 8), "int32", "a")
    out = Tensor((4,), "int32", "out")
    i = Var("i")
    rk = reduce_axis(0, 8, "rk")
    body = For(i, 4, Store(out, [i], Reduce("sum", a[i, rk], [rk])))
    return PrimFunc("reduce_in_tir", [a, out], body, op=None), "Reduce"


def _foreign_indexed_store():
    out = Tensor((4,), "int32", "out")
    i = Var("i")
    body = For(i, 4, Store(out, [_Foreign(i)], Const(1, "int32")))
    return PrimFunc("foreign_index", [out], body, op=None), "_Foreign"


@pytest.mark.parametrize("build", [_reduce_valued_store, _foreign_indexed_store])
class TestOutsideTheLanguage:
    def test_verify_names_the_kind(self, build):
        func, kind = build()
        with pytest.raises(VerificationError, match=kind):
            verify(func)

    def test_analyze_reports_it(self, build):
        func, kind = build()
        report = analyze(func)
        assert not report.ok()
        assert any(d.pass_name == "structure" and kind in d.message for d in report.errors)

    def test_no_tier_computes_a_value(self, build, rng):
        func, _ = build()
        buffers = alloc_buffers(func, rng)
        before = buffers[func.output].copy()
        with pytest.raises(TypeError):
            Interpreter(func).run(buffers)
        with pytest.raises(Unvectorizable):
            compile_plan(func, strict=True)
        with pytest.raises(LoweringError):
            generate_c(func)
        np.testing.assert_array_equal(buffers[func.output], before)


def test_foreign_node_in_an_operand_binding_is_rejected():
    params = TABLE1_LAYERS[0]
    func = tensorize(conv2d_nchwc(params, lanes=16, reduction=4), "x86.avx512.vpdpbusd").func
    verify(func)
    (call,) = collect(func.body, lambda s: isinstance(s, IntrinsicCall))
    binding = call.inputs[0]
    for attr in ("program_indices", "intrin_indices"):
        original = getattr(binding, attr)
        setattr(binding, attr, (_Foreign(original[0]),) + tuple(original[1:]))
        with pytest.raises(VerificationError, match="_Foreign"):
            verify(func)
        setattr(binding, attr, original)
    verify(func)


# -- the traffic the slab dispatch owned --------------------------------------


def _dot_without_grid_form():
    """An integer ``acc + sum(a*b)`` instruction that is batchable but ships
    no ``grid_impl``: sequential rounds are the only dispatch it can take."""
    a = placeholder((16,), "int8", "tdot_a")
    b = placeholder((16,), "int8", "tdot_b")
    c = placeholder((4,), "int32", "tdot_c")
    j = reduce_axis(0, 4, "tdot_j")
    d = compute(
        (4,),
        lambda i: c[i] + sum_reduce(cast("int32", a[i * 4 + j]) * cast("int32", b[i * 4 + j]), j),
        name="tdot_d",
        axis_names=["tdot_i"],
    )

    def hardware(operands):
        x, y = operands["tdot_a"], operands["tdot_b"]
        prod = np.einsum(
            "...ij,...ij->...i",
            x.reshape(x.shape[:-1] + (4, 4)),
            y.reshape(y.shape[:-1] + (4, 4)),
            dtype=np.int32,
        )
        return (operands["tdot_c"].astype(np.int32) + prod).astype(np.int32)

    return TensorIntrinsic("test.tdot", d.op, "arm", hardware_impl=hardware, batchable=True)


def test_batchable_dot_without_grid_form_runs_sequential_rounds(rng):
    a = placeholder((7, 32), "int8", "A")
    b = placeholder((8, 32), "int8", "B")
    rk = reduce_axis(0, 32, "rk")
    mm = compute(
        (7, 8),
        lambda i, j: sum_reduce(cast("int32", a[i, rk]) * cast("int32", b[j, rk]), rk),
        name="mm",
    )
    func = tensorize(mm, _dot_without_grid_form(), config=CpuTuningConfig(unroll_limit=4)).func
    assert collect(func.body, lambda s: isinstance(s, IfThenElse))  # 7 rows: ragged, guarded

    plan = compile_plan(func, strict=True)
    (step,) = [s for s in plan.steps if type(s).__name__ == "_IntrinsicStep"]
    assert len(step.rounds) == 8  # 32 / 4 reduction rounds, one dispatch each

    buffers = alloc_buffers(func, rng)
    expected = run(func, {t: x.copy() for t, x in buffers.items()})
    engine = Executor(tier="vectorized", strict=True)
    got = engine.run(func, {t: x.copy() for t, x in buffers.items()})
    assert got.tobytes() == expected.tobytes()
    assert engine.stats.intrinsic_rounds == 8
    assert engine.stats.intrinsic_round_batches == 0
    assert engine.stats.fallback_nests == 0
