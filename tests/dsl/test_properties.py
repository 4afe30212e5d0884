"""Property-based tests (hypothesis) for the expression layer."""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl import (
    Add,
    Const,
    FloorDiv,
    Max,
    Min,
    Mod,
    Mul,
    Sub,
    Var,
    expr_key,
    extract_linear,
    free_vars,
    post_order,
    simplify,
    structural_equal,
    substitute,
)

_VAR_POOL = [Var(name) for name in ("i", "j", "k")]


@st.composite
def int_exprs(draw, depth=0):
    """Random integer expressions over a small pool of variables."""
    if depth > 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return draw(st.sampled_from(_VAR_POOL)), set()
        value = draw(st.integers(min_value=-20, max_value=20))
        return Const(value), set()
    op = draw(st.sampled_from([Add, Sub, Mul, Min, Max]))
    lhs, lv = draw(int_exprs(depth=depth + 1))
    rhs, rv = draw(int_exprs(depth=depth + 1))
    return op(lhs, rhs), lv | rv


def _evaluate(expr, env):
    """Reference evaluator for the random expression trees."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return env[expr]
    a, b = _evaluate(expr.a, env), _evaluate(expr.b, env)
    if isinstance(expr, Add):
        return a + b
    if isinstance(expr, Sub):
        return a - b
    if isinstance(expr, Mul):
        return a * b
    if isinstance(expr, Min):
        return min(a, b)
    if isinstance(expr, Max):
        return max(a, b)
    if isinstance(expr, FloorDiv):
        return a // b
    if isinstance(expr, Mod):
        return a % b
    raise TypeError(type(expr))


@given(int_exprs(), st.lists(st.integers(-50, 50), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_simplify_preserves_value(expr_and_vars, values):
    """simplify() must never change the value of an expression."""
    expr, _ = expr_and_vars
    env = dict(zip(_VAR_POOL, values))
    assert _evaluate(simplify(expr), env) == _evaluate(expr, env)


@given(int_exprs())
@settings(max_examples=200, deadline=None)
def test_simplify_idempotent(expr_and_vars):
    expr, _ = expr_and_vars
    once = simplify(expr)
    twice = simplify(once)
    assert structural_equal(once, twice)


@given(int_exprs())
@settings(max_examples=200, deadline=None)
def test_structural_equal_reflexive(expr_and_vars):
    expr, _ = expr_and_vars
    assert structural_equal(expr, expr)


_BINOPS = [Add, Sub, Mul, Min, Max]


def _rebuild(expr, target=None, change=None):
    """A fresh copy of ``expr`` (new nodes, same variables); the node at
    post-order position ``target`` is replaced by ``change(node)``."""
    counter = [0]

    def walk(node):
        if isinstance(node, (Var, Const)):
            new = node if isinstance(node, Var) else Const(node.value, node.dtype)
        else:
            new = type(node)(walk(node.a), walk(node.b))
        position = counter[0]
        counter[0] += 1
        return change(new) if position == target else new

    return walk(expr)


@given(int_exprs())
@settings(max_examples=200, deadline=None)
def test_expr_key_of_rebuilt_tree_is_equal(expr_and_vars):
    expr, _ = expr_and_vars
    copy = _rebuild(expr)
    assert expr_key(copy) == expr_key(expr)
    assert hash(expr_key(copy)) == hash(expr_key(expr))
    assert structural_equal(copy, expr)


@given(int_exprs(), st.data())
@settings(max_examples=300, deadline=None)
def test_expr_key_sees_opcode_dtype_and_constant_changes(expr_and_vars, data):
    expr, _ = expr_and_vars
    nodes = list(post_order(expr))
    target = data.draw(st.integers(0, len(nodes) - 1))
    node = nodes[target]
    if isinstance(node, Const):
        change = data.draw(
            st.sampled_from(
                [
                    lambda c: Const(c.value ^ 1, c.dtype),  # one bit of the constant
                    lambda c: Const(c.value, "int64"),  # its dtype
                ]
            )
        )
    elif isinstance(node, Var):
        change = lambda v: Var(v.name)  # another variable of the same name
    else:
        other = data.draw(st.sampled_from([op for op in _BINOPS if op is not type(node)]))
        change = lambda n: other(n.a, n.b)  # the opcode
    assert expr_key(_rebuild(expr, target, change)) != expr_key(expr)


@given(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(0, 63),
)
@settings(max_examples=200, deadline=None)
def test_expr_key_sees_every_float_bit(value, bit):
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    (flipped,) = struct.unpack("<d", struct.pack("<Q", bits ^ (1 << bit)))
    x = Var("x", "float32")
    assert expr_key(x + Const(value, "float32")) == expr_key(x + Const(value, "float32"))
    assert expr_key(x + Const(flipped, "float32")) != expr_key(x + Const(value, "float32"))


@given(
    st.integers(-8, 8),
    st.integers(-8, 8),
    st.integers(-20, 20),
    st.lists(st.integers(-30, 30), min_size=2, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_extract_linear_matches_evaluation(ci, cj, k, values):
    """The extracted (coefficients, constant) must reproduce the expression."""
    i, j = _VAR_POOL[0], _VAR_POOL[1]
    expr = i * ci + j * cj + k
    result = extract_linear(expr, [i, j])
    assert result is not None
    coeffs, const = result
    env = {i: values[0], j: values[1]}
    linear_value = sum(coeffs.get(v, 0) * env[v] for v in (i, j)) + const
    assert linear_value == _evaluate(expr, env)


@given(int_exprs(), st.integers(-10, 10))
@settings(max_examples=150, deadline=None)
def test_substitute_removes_variable(expr_and_vars, value):
    expr, _ = expr_and_vars
    target = _VAR_POOL[0]
    out = substitute(expr, {target: Const(value)})
    assert target not in free_vars(out)
