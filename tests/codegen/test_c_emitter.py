"""``generate_c`` over every statement and expression kind of the tensor IR.

Each kernel here is built with the flags kernels are really built with and
held byte for byte against the scalar interpreter: the statement kinds no
lowering emits together (``Allocate``, ``AttrStmt``, an ``else`` branch),
index expressions beyond affine sums, the integer value operators at the
edges of their dtype, and float ``min`` / ``max`` on NaN and signed zeros.
The refusals are here too: what the native tier will not write, and the
operand layouts the instruction may not load directly.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.analysis.interval import Interval
from repro.codegen import generate
from repro.codegen.lowlevel import (
    LoweringError,
    _c_type_for,
    _CEmitter,
    _intrinsic_native_reason,
    _operand_access,
    generate_c,
    native_support_reason,
)
from repro.core import tensorize
from repro.dsl import cast, compute, placeholder, reduce_axis, sum_reduce
from repro.dsl import expr as E
from repro.dsl.dtype import from_string
from repro.dsl.tensor import Tensor
from repro.isa import TensorIntrinsic, get_intrinsic
from repro.tir import (
    Allocate,
    AttrStmt,
    For,
    IfThenElse,
    PrimFunc,
    Stmt,
    Store,
    backend,
    lower,
    native_toolchain,
    run,
    seq,
)
from repro.tir.stmt import IntrinsicCall
from repro.tir.visitor import collect
from repro.workloads import Conv2DParams, conv2d_nchwc
from tests.conftest import build_kernel

needs_toolchain = pytest.mark.skipif(
    native_toolchain()[0] is None, reason="no native toolchain (C compiler)"
)


def assert_host_build_matches_interpreter(func, buffers, tmp_path):
    with np.errstate(all="ignore"):
        expected = run(func, {t: a.copy() for t, a in buffers.items()})
    kernel = build_kernel(generate_c(func), backend.cc_flags(), tmp_path, "host")
    got = kernel.run([buffers[p].copy() for p in func.params])
    assert backend.same_bits(got, expected), (got, expected)


def every_statement_kind():
    """``Allocate``, ``AttrStmt``, ``For``, ``SeqStmt``, ``Store`` and an
    ``IfThenElse`` with an ``else`` branch in one function; odd scratch
    slots are never written, so they must read as zero."""
    a = placeholder((6,), "int32", "a")
    out = Tensor((6,), "int32", "out")
    scratch = Tensor((6,), "int32", "scratch")
    i, j = E.Var("i"), E.Var("j")
    body = AttrStmt(
        "pragma_note",
        1,
        Allocate(
            scratch,
            seq(
                For(i, 3, Store(scratch, [i * 2], a[i * 2] * 3)),
                For(
                    j,
                    6,
                    IfThenElse(
                        j < 4,
                        Store(out, [j], scratch[j] + 1),
                        Store(out, [j], a[j] - scratch[j]),
                    ),
                ),
            ),
        ),
    )
    return PrimFunc("every_stmt", [a, out], body, op=None)


class TestStatements:
    def test_listing_of_every_statement_kind(self):
        listing = generate(every_statement_kind(), target="x86")
        opcodes = [instr.opcode for instr in listing.instructions]
        for opcode in (".attr", "alloca", ".if", ".else", ".endif"):
            assert opcode in opcodes
        assert listing.stats["guards"] == 1 and listing.stats["scalar_store"] == 3
        assert listing.dynamic_stats["scalar_store"] == 3 + 6 + 6

    def test_listing_of_a_broadcast_operand(self):
        """``fma.fp32`` broadcasts one scalar of ``b`` across its lanes."""
        a = placeholder((8, 16), "float32", "a")
        b = placeholder((16, 32), "float32", "b")
        rk = reduce_axis(0, 16, "rk")
        mm = compute((8, 32), lambda i, j: sum_reduce(a[i, rk] * b[rk, j], rk), name="mm")
        listing = generate(tensorize(mm, "x86.avx512.fma.fp32").func, target="x86")
        assert listing.stats["broadcast"] == 1
        assert listing.dynamic_stats["broadcast"] == listing.dynamic_stats["tensorized"] > 1

    def test_listing_refuses_a_foreign_statement(self):
        func = PrimFunc("foreign", [], _Foreign(), op=None)
        with pytest.raises(TypeError, match="_Foreign"):
            generate(func)

    @needs_toolchain
    def test_every_statement_kind_matches_interpreter(self, tmp_path):
        func = every_statement_kind()
        source = generate_c(func).source
        assert "calloc(" in source and "} else {" in source
        buffers = {func.params[0]: np.arange(-3, 3, dtype=np.int32) * 7, func.params[1]: np.zeros(6, np.int32)}
        assert_host_build_matches_interpreter(func, buffers, tmp_path)

    @needs_toolchain
    def test_names_are_unique_c_identifiers(self, tmp_path):
        x, twin, digit = (placeholder((4,), "int32", name) for name in ("x", "x", "0y"))
        func = lower(compute((4,), lambda i: x[i] - twin[i] * digit[i], name="names"))
        source = generate_c(func).source
        assert "t_x[" in source and "t_x_1[" in source and "t__0y[" in source
        rng = np.random.default_rng(0)
        buffers = {t: rng.integers(-50, 50, t.shape).astype(np.int32) for t in func.params}
        assert_host_build_matches_interpreter(func, buffers, tmp_path)


class TestExpressions:
    @needs_toolchain
    def test_index_expressions(self, tmp_path):
        """Clamped, mirrored, cast and gathered indices."""
        n = 8
        a = placeholder((n,), "float32", "a")
        idx = placeholder((n,), "int32", "idx")

        def body(axis):
            i = axis.var
            clamped = E.Max(E.Min(i - 1, E.Const(n - 1)), E.Const(0))
            mirrored = E.Select(i < 4, i, (n - 1) - i)
            return a[clamped] + a[mirrored] * a[cast("int64", i)] - a[idx[i] % n]

        func = lower(compute((n,), body, name="indexing"))
        rng = np.random.default_rng(1)
        buffers = {
            a: rng.standard_normal(n).astype(np.float32),
            idx: rng.integers(-20, 20, n).astype(np.int32),
            func.output: np.zeros(n, np.float32),
        }
        assert_host_build_matches_interpreter(func, buffers, tmp_path)

    @needs_toolchain
    @pytest.mark.parametrize("dtype", ["int8", "uint8", "int32"])
    @pytest.mark.parametrize(
        "op",
        ["floordiv", "mod", "min", "max", "weak_left_add"],
    )
    def test_integer_operators_at_the_edges(self, dtype, op, tmp_path):
        """Every pair of {min, min + 1, -7, -1, 0, 1, 7, max}: division by
        zero, ``min // -1`` and wraparound included."""
        info = np.iinfo(dtype)
        edges = sorted(v for v in {info.min, info.min + 1, -7, -1, 0, 1, 7, info.max} if info.min <= v <= info.max)
        pairs = np.array(list(itertools.product(edges, edges)), dtype=dtype)
        n = len(pairs)
        a, b = placeholder((n,), dtype, "a"), placeholder((n,), dtype, "b")
        ops = {
            "floordiv": lambda i: a[i] // b[i],
            "mod": lambda i: a[i] % b[i],
            "min": lambda i: E.Min(a[i], b[i]),
            "max": lambda i: E.Max(a[i], b[i]),
            "weak_left_add": lambda i: E.Add(E.Const(100), a[i]) + b[i],
        }
        func = lower(compute((n,), ops[op], name=op))
        buffers = {a: pairs[:, 0].copy(), b: pairs[:, 1].copy()}
        buffers[func.output] = np.zeros(n, func.output.dtype.np_dtype)
        assert_host_build_matches_interpreter(func, buffers, tmp_path)

    @needs_toolchain
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("op", ["min", "max"])
    def test_float_min_max_keep_operand_order(self, dtype, op, tmp_path):
        """``min(nan, 1)`` is NaN and ``min(1, nan)`` is 1, ``min(-0.0,
        0.0)`` is the first operand: the interpreter's ``min`` / ``max``."""
        edges = [np.nan, -np.inf, -1.5, -0.0, 0.0, 2.0, np.inf]
        pairs = np.array(list(itertools.product(edges, edges)), dtype=dtype)
        n = len(pairs)
        a, b = placeholder((n,), dtype, "a"), placeholder((n,), dtype, "b")
        kind = E.Min if op == "min" else E.Max
        func = lower(compute((n,), lambda i: kind(a[i], b[i]), name=op))
        buffers = {a: pairs[:, 0].copy(), b: pairs[:, 1].copy(), func.output: np.zeros(n, dtype)}
        assert_host_build_matches_interpreter(func, buffers, tmp_path)

    @needs_toolchain
    def test_weak_float_scalar_math(self, tmp_path):
        """``0.5 * i`` is a Python float in the interpreter (a ``double``
        in C) until it meets the float32 load."""
        a = placeholder((16,), "float32", "a")
        func = lower(compute((16,), lambda i: a[i] + E.Mul(E.Const(0.5), i.var), name="ramp"))
        rng = np.random.default_rng(3)
        buffers = {a: rng.standard_normal(16).astype(np.float32), func.output: np.zeros(16, np.float32)}
        assert_host_build_matches_interpreter(func, buffers, tmp_path)

    @needs_toolchain
    def test_bool_output_of_bool_constants(self, tmp_path):
        a, b = placeholder((16,), "int32", "a"), placeholder((16,), "int32", "b")
        func = lower(
            compute((16,), lambda i: E.Select(a[i] > b[i], E.Const(True), E.Const(False)), name="gt")
        )
        assert func.output.dtype.name == "bool"
        rng = np.random.default_rng(2)
        buffers = {t: rng.integers(-3, 3, 16).astype(np.int32) for t in (a, b)}
        buffers[func.output] = np.zeros(16, np.bool_)
        assert_host_build_matches_interpreter(func, buffers, tmp_path)


class _Foreign(Stmt):
    """A statement no tier knows."""


class _Pow(E.BinaryOp):
    """A binary operator outside ``TIR_EXPR_KINDS``."""


def _elementwise(dtype, op):
    a, b = placeholder((4,), dtype, "a"), placeholder((4,), dtype, "b")
    return lower(compute((4,), lambda i: op(a[i], b[i]), name="elementwise"))


class TestRefusals:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("op", ["FloorDiv", "Mod"])
    def test_float_floor_division_and_remainder(self, dtype, op):
        """numpy's ``1.0 // 0.1`` is 9.0 and ``-4.0 % 2.0`` is +0.0; C's
        ``floor(a / b)`` and ``fmod`` say 10.0 and -0.0."""
        func = _elementwise(dtype, getattr(E, op))
        assert native_support_reason(func) == f"{dtype} {op} has no native lowering"

    def test_unlowerable_dtype_inside_an_expression(self):
        a = placeholder((4,), "float32", "a")
        func = lower(compute((4,), lambda i: cast("float32", cast("float16", a[i])), name="narrow"))
        assert native_support_reason(func) == "dtype float16 has no native lowering"

    def test_unlowerable_allocation(self):
        out = Tensor((4,), "float32", "out")
        scratch = Tensor((4,), "float16", "scratch")
        i = E.Var("i")
        body = Allocate(scratch, For(i, 4, Store(out, [i], cast("float32", scratch[i]))))
        func = PrimFunc("alloc16", [out], body, op=None)
        assert native_support_reason(func) == (
            "allocation scratch: dtype float16 has no native lowering"
        )

    def test_foreign_statement(self):
        func = PrimFunc("foreign", [], _Foreign(), op=None)
        assert native_support_reason(func) == "statement _Foreign has no native lowering"

    def test_non_finite_constant(self):
        a = placeholder((4,), "float32", "a")
        func = lower(compute((4,), lambda i: a[i] + float("inf"), name="inf"))
        with pytest.raises(LoweringError, match="non-finite"):
            generate_c(func)

    def test_the_emitter_refuses_what_native_support_reason_refuses(self):
        """``generate_c`` asks ``native_support_reason`` first, so the
        emitter's own refusals are reached only from inside."""
        func = every_statement_kind()
        emitter = _CEmitter(func)
        a = func.params[0]
        with pytest.raises(LoweringError, match="Reduce"):
            emitter.value(E.Reduce("sum", a[E.Var("k")], [reduce_axis(0, 6, "k")]), {})
        with pytest.raises(LoweringError, match="_Pow"):
            emitter.value(_Pow(a[0], a[1]), {})
        with pytest.raises(LoweringError, match="_Foreign"):
            emitter.visit(_Foreign())
        with pytest.raises(LoweringError, match="float16"):
            _c_type_for(from_string("float16"))


def _with_lowering(intrin: TensorIntrinsic, **changes) -> TensorIntrinsic:
    """``intrin`` with ``vpdpbusd``'s lowering attached (fields replaced by
    ``changes``)."""
    lowering = get_intrinsic("x86.avx512.vpdpbusd").native_lowering
    return TensorIntrinsic(
        f"test.{intrin.name}", intrin.op, intrin.target,
        native_lowering=dataclasses.replace(lowering, **changes),
        hardware_impl=intrin.hardware_impl,
    )


def _dot(body):
    """A 4-lane int8 dot-product description whose body is ``body(c, a, b, i, j)``."""
    a = placeholder((16,), "int8", "dot_a")
    b = placeholder((16,), "int8", "dot_b")
    c = placeholder((4,), "int32", "dot_c")
    j = reduce_axis(0, 4, "dot_j")
    d = compute((4,), lambda i: body(c, a, b, i, j), name="dot_d", axis_names=["dot_i"])
    return TensorIntrinsic("dot", d.op, "x86")


class TestInstructionsWithALowering:
    @pytest.mark.parametrize(
        "intrin, reason",
        [
            (get_intrinsic("x86.avx512.fma.fp32"), "non-integer accumulator"),
            (get_intrinsic("arm.neon.mla.int8.widened"), "body is not acc + sum-reduction"),
            (
                _dot(lambda c, a, b, i, j: sum_reduce(cast("int32", a[i * 4 + j]) * cast("int32", b[i * 4 + j]), j)),
                "body is not acc + reduce",
            ),
            (
                _dot(lambda c, a, b, i, j: c[i] + sum_reduce(c[i] * cast("int32", a[i * 4 + j]), j)),
                "reduction reads accumulator",
            ),
        ],
        ids=["float", "no-reduction", "no-accumulator", "reads-accumulator"],
    )
    def test_order_sensitive_instructions_are_refused(self, intrin, reason):
        """A lowering alone does not make an instruction writable: it must
        also be an order-free integer dot product."""
        assert reason in _intrinsic_native_reason(_with_lowering(intrin))

    def test_lowering_naming_an_unknown_operand(self):
        intrin = _with_lowering(
            get_intrinsic("x86.avx512.vpdpbusd"), op="_mm512_dpbusd_epi32({vnni_c}, {vnni_a}, {nope})"
        )
        params = Conv2DParams(in_channels=8, in_height=6, in_width=6, out_channels=16, kernel=1)
        func = tensorize(conv2d_nchwc(params), intrin).func
        with pytest.raises(LoweringError, match="unknown operand 'nope'"):
            generate_c(func)


class TestOperandAccess:
    """Only a register whose lanes are one contiguous run of program memory
    (or one repeated 4-byte group) is loaded directly; every other layout
    is staged lane by lane."""

    def _call(self):
        params = Conv2DParams(in_channels=8, in_height=6, in_width=6, out_channels=16, kernel=1)
        func = tensorize(conv2d_nchwc(params), "x86.avx512.vpdpbusd").func
        (call,) = collect(func.body, lambda s: isinstance(s, IntrinsicCall))
        env = {
            loop.var: Interval(0, loop.extent - 1)
            for loop in collect(func.body, lambda s: isinstance(s, For))
        }
        return call, env

    def _data(self, call, **changes):
        binding = next(b for b in call.inputs if b.intrin_tensor.name == "vnni_a")
        return dataclasses.replace(binding, **changes)

    def test_the_blocked_layout_loads_directly(self):
        call, env = self._call()
        kinds = {b.intrin_tensor.name: _operand_access(call, b, env) for b in [*call.inputs, call.output]}
        assert kinds == {
            "vnni_c": "contiguous", "vnni_a": "broadcast", "vnni_b": "contiguous", "vnni_d": "contiguous",
        }

    def test_program_dtype_differs_from_the_register(self):
        call, env = self._call()
        prog = self._data(call).program_tensor
        other = Tensor(prog.shape, "int8", prog.name)
        assert _operand_access(call, self._data(call, program_tensor=other), env) == "staged"

    def test_non_affine_program_index(self):
        call, env = self._call()
        binding = self._data(call)
        i, j = (ax.var for ax in call.axes)
        indices = (*binding.program_indices[:-1], binding.program_indices[-1] * j)
        assert _operand_access(call, self._data(call, program_indices=indices), env) == "staged"

    def test_register_index_that_is_no_mixed_radix(self):
        call, env = self._call()
        i, j = (ax.var for ax in call.axes)
        assert _operand_access(call, self._data(call, intrin_indices=(i * 8 + j,)), env) == "staged"

    def test_register_index_that_misses_lanes(self):
        call, env = self._call()
        i, _ = (ax.var for ax in call.axes)
        assert _operand_access(call, self._data(call, intrin_indices=(i,)), env) == "staged"
