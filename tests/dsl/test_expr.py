"""Unit tests for the expression tree: construction, analysis, simplification."""

import pytest

from repro.dsl import (
    Add,
    Cast,
    Compare,
    Const,
    Mul,
    Reduce,
    Select,
    TensorLoad,
    Var,
    cast,
    expr_key,
    expr_to_str,
    extract_linear,
    free_vars,
    loop_axis,
    placeholder,
    reduce_axis,
    simplify,
    structural_equal,
    substitute,
    sum_reduce,
    tensors_referenced,
)


class TestConstruction:
    def test_operator_overloading(self):
        i = Var("i")
        e = i * 4 + 1
        assert isinstance(e, Add)
        assert isinstance(e.a, Mul)
        assert expr_to_str(e) == "((i * 4) + 1)"

    def test_axis_participates_in_arithmetic(self):
        i = loop_axis(0, 16, "i")
        j = reduce_axis(0, 4, "j")
        e = i * 4 + j
        assert sorted(v.name for v in free_vars(e)) == ["i", "j"]

    def test_tensor_load_checks_rank(self):
        t = placeholder((4, 4), "int8", "t")
        with pytest.raises(ValueError):
            TensorLoad(t, [Var("i")])

    def test_cast_folds_noop_and_constant(self):
        assert cast("int32", Const(3, "int32")) is not None
        c = cast("int32", Const(3, "int8"))
        assert isinstance(c, Const) and c.dtype.name == "int32"
        v = Var("x", "int32")
        assert cast("int32", v) is v

    def test_reduce_requires_reduce_axis(self):
        i = loop_axis(0, 4, "i")
        with pytest.raises(ValueError):
            sum_reduce(Const(1), i)

    def test_nested_reduce_detected_via_compute(self):
        from repro.dsl import compute

        j = reduce_axis(0, 4, "j")
        k = reduce_axis(0, 4, "k")
        with pytest.raises(ValueError):
            compute((4,), lambda i: sum_reduce(sum_reduce(Const(1, "int32"), k), j))


class TestAnalysis:
    def test_free_vars_and_tensors(self):
        a = placeholder((8,), "int8", "a")
        b = placeholder((8,), "int8", "b")
        i = Var("i")
        e = cast("int32", a[i]) * cast("int32", b[i])
        assert free_vars(e) == [i]
        assert tensors_referenced(e) == [a, b]

    def test_structural_equal_different_tensors(self):
        a = placeholder((8,), "int8", "a")
        b = placeholder((8,), "int8", "b")
        i = Var("i")
        assert not structural_equal(a[i], b[i])

    def test_substitute(self):
        a = placeholder((8, 8), "int8", "a")
        i, j, x = Var("i"), Var("j"), Var("x")
        e = a[i, j] + i
        out = substitute(e, {i: x * 2})
        names = {v.name for v in free_vars(out)}
        assert names == {"x", "j"}


class TestSimplify:
    def test_constant_folding(self):
        e = Const(2) * Const(3) + Const(4)
        s = simplify(e)
        assert isinstance(s, Const) and s.value == 10

    def test_identities(self):
        x = Var("x")
        assert simplify(x + 0) is x
        assert simplify(x * 1) is x
        mul_zero = simplify(x * 0)
        assert isinstance(mul_zero, Const) and mul_zero.value == 0
        assert simplify(x // 1) is x

    def test_select_folding(self):
        x = Var("x")
        s = simplify(Select(Compare("<", Const(1), Const(2)), x, x + 1))
        assert s is x

    def test_compare_folding(self):
        c = simplify(Compare(">=", Const(4), Const(2)))
        assert isinstance(c, Const) and c.value is True


class TestExtractLinear:
    def test_affine(self):
        i, j = Var("i"), Var("j")
        coeffs, const = extract_linear(i * 4 + j + 2, [i, j])
        assert coeffs == {i: 4, j: 1}
        assert const == 2

    def test_nested_scaling(self):
        i, j = Var("i"), Var("j")
        coeffs, const = extract_linear((i + j) * 3, [i, j])
        assert coeffs == {i: 3, j: 3} and const == 0

    def test_non_affine_returns_none(self):
        i, j = Var("i"), Var("j")
        assert extract_linear(i * j, [i, j]) is None

    def test_unknown_variable_returns_none(self):
        i, j = Var("i"), Var("j")
        assert extract_linear(i + j, [i]) is None

    def test_cast_transparent(self):
        i = Var("i")
        coeffs, const = extract_linear(cast("int32", i * 2), [i])
        assert coeffs == {i: 2} and const == 0


class TestInterning:
    """Hash-consing / memoization layer: cached keys, memoized traversals."""

    def test_expr_key_consistent_with_equality(self):
        a = placeholder((8,), "int32", "a")
        i, j = Var("i"), Var("j")
        e1 = a[i] * 2 + 1
        e2 = a[i] * 2 + 1
        assert structural_equal(e1, e2)
        assert expr_key(e1) == expr_key(e2)
        assert hash(expr_key(e1)) == hash(expr_key(e2))
        # Variables and tensors are keyed by identity:
        assert expr_key(a[j] * 2 + 1) != expr_key(e1)
        assert not structural_equal(a[i], a[j])
        assert expr_key(placeholder((8,), "int32", "a")[i] * 2 + 1) != expr_key(e1)
        # ... unless an id map names them:
        assert expr_key(a[i], {i: 0}) == expr_key(a[j], {j: 0})
        # Differing structure differs in key:
        assert expr_key(e1) != expr_key(a[i] * 3 + 1)
        assert expr_key(e1) != expr_key(a[i] * 2 - 1)

    def test_expr_key_cached_on_node(self):
        a = placeholder((8,), "int32", "a")
        e = a[Var("i")] + 5
        key = expr_key(e)
        assert e._key is key
        assert expr_key(e) is key
        assert key[3] is expr_key(e.a)  # a child's key is its own remembered one
        # With id maps nothing is remembered:
        fresh = a[Var("k")] + 5
        expr_key(fresh, {}, {})
        assert "_key" not in fresh.__dict__

    def test_structural_equal_reuses_cached_keys(self):
        a = placeholder((8,), "int32", "a")
        i = Var("i")
        e1 = a[i] * 2 + 1
        e2 = a[i] * 2 + 1
        assert structural_equal(e1, e2)
        k1, k2 = e1._key, e2._key
        assert structural_equal(e1, e2)  # the second comparison builds no key
        assert e1._key is k1 and e2._key is k2
        assert expr_key(e1) is k1 and expr_key(e2) is k2

    def test_float_constants_keyed_by_bits(self):
        x = Var("x", "float32")
        keys = {
            expr_key(x + Const(v, "float32"))
            for v in (0.0, -0.0, float("nan"), -float("nan"), 1.0)
        }
        assert len(keys) == 5
        assert not structural_equal(x * Const(0.0, "float32"), x * Const(-0.0, "float32"))
        assert structural_equal(x * Const(0.5, "float32"), x * Const(0.5, "float32"))
        # Integers by value; dtype is part of the key.
        assert expr_key(Const(3, "int32")) == expr_key(Const(3, "int32"))
        assert expr_key(Const(3, "int32")) != expr_key(Const(3, "int8"))

    def test_simplify_memoized_and_idempotent(self):
        from repro.dsl import expr_cache_stats, reset_expr_cache_stats

        i = Var("i")
        e = i * 1 + 0
        reset_expr_cache_stats()
        s1 = simplify(e)
        s2 = simplify(e)
        assert s1 is s2
        assert simplify(s1) is s1
        stats = expr_cache_stats()
        assert stats.simplify_hits >= 1

    def test_extract_linear_memoized_returns_fresh_dicts(self):
        from repro.dsl import expr_cache_stats, reset_expr_cache_stats

        i, j = Var("i"), Var("j")
        e = i * 4 + j
        reset_expr_cache_stats()
        coeffs1, const1 = extract_linear(e, [i, j])
        coeffs2, const2 = extract_linear(e, [i, j])
        assert coeffs1 == coeffs2 and const1 == const2
        assert coeffs1 is not coeffs2  # callers may mutate their copy
        coeffs1[i] = 999
        coeffs3, _ = extract_linear(e, [i, j])
        assert coeffs3[i] == 4
        assert expr_cache_stats().linear_hits >= 2
        # A different variable set is a different cache entry:
        assert extract_linear(e, [i]) is None

    def test_arith_signature_matches_isomorphic_shapes(self):
        from repro.dsl import arith_signature

        a = placeholder((64,), "uint8", "a")
        b = placeholder((64,), "int8", "b")
        c = placeholder((16, 4), "uint8", "c")
        d = placeholder((16, 4), "int8", "d")
        i, p, q = Var("i"), Var("p"), Var("q")
        e1 = cast("int32", a[i * 4 + 1]) * cast("int32", b[i])
        e2 = cast("int32", c[p, q]) * cast("int32", d[q, p])
        # Same topology/dtypes/opcodes -> same signature, despite different
        # tensors and index expressions (what register binding may vary).
        assert arith_signature(e1) == arith_signature(e2)
        # Operand dtype flip changes the signature:
        e3 = cast("int32", b[i]) * cast("int32", a[i])
        assert arith_signature(e1) != arith_signature(e3)
