"""Tests for Algorithm 1 (arithmetic isomorphism) and the update-form normalisation."""

import pytest

from repro.dsl import Select, cast, compute, placeholder, reduce_axis, sum_reduce
from repro.inspector import match_isomorphism, update_form
from repro.isa import get_intrinsic
from tests.conftest import small_conv_hwc, small_matmul_fp16, small_matmul_int8


class TestUpdateForm:
    def test_conv_update_references_output(self):
        conv = small_conv_hwc()
        form = update_form(conv.op)
        assert form.store.tensor is conv
        # The update is accumulator + elementwise product.
        from repro.dsl import Add

        assert isinstance(form.value, Add)

    def test_vnni_keeps_explicit_accumulator(self):
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        form = update_form(vnni.op)
        from repro.dsl import Add, TensorLoad

        assert isinstance(form.value, Add)
        assert isinstance(form.value.a, TensorLoad)
        assert form.value.a.tensor.name == "vnni_c"

    def test_accumulate_form_uses_output_as_accumulator(self):
        wmma = get_intrinsic("nvvm.wmma.m16n16k16.mma.row.row.f32.f32")
        form = update_form(wmma.op)
        from repro.dsl import Add, TensorLoad

        assert isinstance(form.value, Add)
        assert form.value.a.tensor is wmma.op.output


class TestIsomorphism:
    def test_conv_matches_vnni(self):
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        conv = small_conv_hwc()
        result = match_isomorphism(vnni.op, conv.op)
        assert result.matched
        names = {k.name: getattr(v, "name", v) for k, v in result.register_bindings.items()}
        assert names["vnni_a"] == "data"
        assert names["vnni_b"] == "weight"
        assert names["vnni_c"] == "conv"
        assert names["vnni_d"] == "conv"
        # store pair + accumulator + two operand loads
        assert len(result.load_pairs) == 4

    def test_matmul_matches_dot_and_vnni(self):
        mm = small_matmul_int8()
        for name in ("x86.avx512.vpdpbusd", "arm.neon.sdot"):
            intrin = get_intrinsic(name)
            if name == "arm.neon.sdot":
                # sdot wants int8 x int8; the uint8 x int8 matmul should fail.
                assert not match_isomorphism(intrin.op, mm.op).matched
            else:
                assert match_isomorphism(intrin.op, mm.op).matched

    def test_fp16_matmul_matches_wmma(self):
        wmma = get_intrinsic("nvvm.wmma.m16n16k16.mma.row.row.f32.f32")
        mm = small_matmul_fp16()
        assert match_isomorphism(wmma.op, mm.op).matched

    def test_dtype_mismatch_rejected(self):
        """An fp32 operation does not match the int8 VNNI instruction."""
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        a = placeholder((8, 8), "float32", "a")
        b = placeholder((8, 8), "float32", "b")
        k = reduce_axis(0, 8, "k")
        mm = compute((8, 8), lambda i, j: sum_reduce(a[i, k] * b[k, j], k), name="mm32")
        result = match_isomorphism(vnni.op, mm.op)
        assert not result.matched
        assert "dtype" in result.reason

    def test_operand_sign_mismatch_rejected(self):
        """VNNI is u8 x s8: an s8 x s8 program must not match."""
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        a = placeholder((4, 8), "int8", "a")
        b = placeholder((4, 8), "int8", "b")
        k = reduce_axis(0, 8, "k")
        mm = compute(
            (4, 4),
            lambda i, j: sum_reduce(cast("int32", a[i, k]) * cast("int32", b[j, k]), k),
            name="mm_s8s8",
        )
        assert not match_isomorphism(vnni.op, mm.op).matched

    def test_topology_mismatch_rejected(self):
        """Max-pooling (no multiply) does not match a dot-product instruction."""
        from repro.dsl import max_reduce

        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        a = placeholder((8, 4), "int32", "a")
        k = reduce_axis(0, 4, "k")
        pool = compute((8,), lambda i: max_reduce(a[i, k], k), name="pool")
        assert not match_isomorphism(vnni.op, pool.op).matched

    def test_accumulator_read_from_another_tensor_still_matches(self):
        """A bias-add matmul: the accumulator register ``c`` reads ``bias``
        while ``d`` writes the output, and the match binds each to its own
        tensor.  (A register that would need two tensors is refused; see
        ``TestLeafBinding``.)"""
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        a = placeholder((4, 8), "uint8", "a")
        b = placeholder((4, 8), "int8", "b")
        b2 = placeholder((16,), "int32", "bias")
        k = reduce_axis(0, 8, "k")
        # The accumulator comes from 'bias' but the output is a new tensor; the
        # d and c registers bind to different tensors, which is allowed; the
        # match must still succeed.
        mm = compute(
            (4, 16),
            lambda i, j: b2[j]
            + sum_reduce(cast("int32", a[i, k]) * cast("int32", b[j % 4, k]), k),
            name="mm_bias",
        )
        result = match_isomorphism(vnni.op, mm.op)
        assert result.matched
        names = {r.name: getattr(t, "name", t) for r, t in result.register_bindings.items()}
        assert names["vnni_c"] == "bias"
        assert names["vnni_d"] == "mm_bias"


class TestUpdateFormShapes:
    def test_accumulating_op_without_a_reduction_adds_into_its_output(self):
        from repro.dsl import Add, TensorLoad

        a = placeholder((4,), "int32", "a")
        b = placeholder((4,), "int32", "b")
        acc = compute((4,), lambda i: a[i] * b[i], name="acc", accumulate=True)
        form = update_form(acc.op)
        assert isinstance(form.value, Add)
        assert isinstance(form.value.a, TensorLoad) and form.value.a.tensor is acc
        assert form.value.b is acc.op.body

    def test_sum_written_before_its_accumulator_matches_vnni(self):
        """``sum(...) + bias[j]`` is the same update as ``bias[j] + sum(...)``."""
        vnni = get_intrinsic("x86.avx512.vpdpbusd")
        a = placeholder((4, 8), "uint8", "a")
        b = placeholder((16, 8), "int8", "b")
        bias = placeholder((16,), "int32", "bias")
        k = reduce_axis(0, 8, "k")
        mm = compute(
            (4, 16),
            lambda i, j: sum_reduce(cast("int32", a[i, k]) * cast("int32", b[j, k]), k)
            + bias[j],
            name="mm_bias_last",
        )
        result = match_isomorphism(vnni.op, mm.op)
        assert result.matched
        names = {r.name: getattr(t, "name", t) for r, t in result.register_bindings.items()}
        assert names["vnni_c"] == "bias"


def _elementwise_instruction(body, name):
    """A one-lane instruction description over registers ``x`` and ``y``."""
    x = placeholder((4,), "int32", "x")
    y = placeholder((4,), "int32", "y")
    return compute((4,), lambda i: body(x[i], y[i]), name=name).op


def _program(body, name):
    a = placeholder((4,), "int32", "A")
    b = placeholder((4,), "int32", "B")
    return compute((4,), lambda i: body(a[i], b[i]), name=name).op


class TestLeafBinding:
    """Algorithm 1's leaf rules on instruction descriptions written in the DSL."""

    def test_one_register_cannot_load_two_tensors(self):
        square = _elementwise_instruction(lambda x, y: x * x, "square")
        result = match_isomorphism(square, _program(lambda a, b: a * b, "ab"))
        assert not result.matched
        assert result.reason == (
            "register 'x' corresponds to multiple data sources ('A' and 'B')"
        )

    def test_a_register_may_stand_for_a_program_constant(self):
        mul = _elementwise_instruction(lambda x, y: x * y, "mul")
        result = match_isomorphism(mul, _program(lambda a, b: a * 3, "a3"))
        assert result.matched
        names = {r.name: getattr(t, "name", t) for r, t in result.register_bindings.items()}
        assert names == {"mul": "a3", "x": "A", "y": ("const", 3)}

    def test_a_register_bound_to_a_tensor_cannot_also_be_a_constant(self):
        square = _elementwise_instruction(lambda x, y: x * x, "square")
        result = match_isomorphism(square, _program(lambda a, b: a * 3, "a3"))
        assert not result.matched
        assert "cannot also be constant 3" in result.reason

    def test_a_register_used_twice_may_stand_for_one_constant_twice(self):
        from repro.dsl import const

        square = _elementwise_instruction(lambda x, y: x * x, "square")
        three = const(3, "int32")
        result = match_isomorphism(square, _program(lambda a, b: three * three, "nine"))
        assert result.matched
        names = {r.name: getattr(t, "name", t) for r, t in result.register_bindings.items()}
        assert names == {"square": "nine", "x": ("const", 3)}

    @pytest.mark.parametrize(
        "body, matched",
        [(lambda a, b: a * 2, True), (lambda a, b: a * 3, False), (lambda a, b: a * b, False)],
        ids=["same-constant", "other-constant", "tensor"],
    )
    def test_an_instruction_constant_matches_only_itself(self, body, matched):
        twice = _elementwise_instruction(lambda x, y: x * 2, "twice")
        result = match_isomorphism(twice, _program(body, "p"))
        assert result.matched is matched
        if not matched:
            assert result.reason == "instruction constant does not match operation leaf"


def _loads():
    i = reduce_axis(0, 4, "i").var
    x = placeholder((4,), "int32", "x")[i]
    y = placeholder((4,), "int32", "y")[i]
    a = placeholder((4,), "int32", "A")[i]
    b = placeholder((4,), "int32", "B")[i]
    h = placeholder((4,), "int16", "H")[i]
    return x, y, a, b, h


class TestRecursiveMatchWithoutTheFastPath:
    """``arith_signature`` is a hash, so the recursive core must refuse on its
    own every pair the signature fast path filters out."""

    @pytest.mark.parametrize(
        "case, reason",
        [
            (lambda x, y, a, b, h: (x, h), "dtype mismatch: int32 vs int16"),
            (lambda x, y, a, b, h: (x, a * b), "tree topology mismatch (leaf vs non-leaf)"),
            (lambda x, y, a, b, h: (x * y, a + b), "opcode mismatch: * vs +"),
            (lambda x, y, a, b, h: ((x * y) + y, (a + b) + b), "opcode mismatch: * vs +"),
            (
                lambda x, y, a, b, h: (Select(x < y, x, y), Select(a < b, a, b)),
                "unsupported/unequal node kinds: Select vs Select",
            ),
        ],
        ids=["dtype", "topology", "opcode", "left-operand", "node-kind"],
    )
    def test_mismatch_is_refused(self, case, reason):
        from repro.inspector.isomorphism import _inspect

        instr, prog = case(*_loads())
        assert _inspect(instr, prog, {}, []) == (False, reason)
