"""Expression tree of the tensor DSL.

Expressions are what appear on the right-hand side of a ``compute`` definition
(Figure 4/5 of the paper): loop variables, tensor loads, casts, arithmetic and
reductions.  The Inspector (``repro.inspector``) walks these trees to match a
tensor operation against a tensorized instruction, so the node set is kept
small and explicit.

All nodes are immutable; construct new nodes instead of mutating.  What a
tree *is* — the question behind ``structural_equal`` and the plan cache's
function key — has one answer, :func:`expr_key`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .dtype import DType, bool_, common_type, float32, from_string, int32

__all__ = [
    "Expr",
    "Var",
    "Const",
    "Cast",
    "BinaryOp",
    "Add",
    "Sub",
    "Mul",
    "FloorDiv",
    "Mod",
    "Min",
    "Max",
    "Compare",
    "Select",
    "TensorLoad",
    "Reduce",
    "const",
    "as_expr",
    "cast",
    "sum_reduce",
    "max_reduce",
    "min_reduce",
    "post_order",
    "free_vars",
    "tensors_referenced",
    "expr_key",
    "arith_signature",
    "structural_equal",
    "substitute",
    "simplify",
    "extract_linear",
    "ExprCacheStats",
    "expr_cache_stats",
    "reset_expr_cache_stats",
    "expr_cache_epoch",
    "clear_expr_caches",
]

ExprLike = Union["Expr", int, float, bool]


class Expr:
    """Base class of all DSL expressions."""

    dtype: DType

    # -- operator overloading -------------------------------------------
    def __add__(self, other: ExprLike) -> "Expr":
        return Add(self, as_expr(other, self.dtype))

    def __radd__(self, other: ExprLike) -> "Expr":
        return Add(as_expr(other, self.dtype), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return Sub(self, as_expr(other, self.dtype))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return Sub(as_expr(other, self.dtype), self)

    def __mul__(self, other: ExprLike) -> "Expr":
        return Mul(self, as_expr(other, self.dtype))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return Mul(as_expr(other, self.dtype), self)

    def __floordiv__(self, other: ExprLike) -> "Expr":
        return FloorDiv(self, as_expr(other, self.dtype))

    def __mod__(self, other: ExprLike) -> "Expr":
        return Mod(self, as_expr(other, self.dtype))

    def __neg__(self) -> "Expr":
        return Sub(Const(0, self.dtype), self)

    # Comparisons build Compare nodes (not booleans), used by Select.
    def equal(self, other: ExprLike) -> "Expr":
        return Compare("==", self, as_expr(other, self.dtype))

    def __lt__(self, other: ExprLike) -> "Expr":
        return Compare("<", self, as_expr(other, self.dtype))

    def __le__(self, other: ExprLike) -> "Expr":
        return Compare("<=", self, as_expr(other, self.dtype))

    def __gt__(self, other: ExprLike) -> "Expr":
        return Compare(">", self, as_expr(other, self.dtype))

    def __ge__(self, other: ExprLike) -> "Expr":
        return Compare(">=", self, as_expr(other, self.dtype))

    # -- helpers ----------------------------------------------------------
    def astype(self, dtype) -> "Expr":
        return cast(dtype, self)

    @property
    def children(self) -> Tuple["Expr", ...]:
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .printer import expr_to_str

        return expr_to_str(self)

    # Expressions are identity-hashable; use structural_equal for structure.
    __hash__ = object.__hash__


class Var(Expr):
    """A scalar variable — usually a loop iteration variable.

    Variables compare by identity: two distinct ``Var("i")`` objects are
    different variables.  This mirrors TVM, where ``IterVar``s are objects.
    """

    _counter = 0

    def __init__(self, name: str, dtype=int32) -> None:
        self.name = name
        self.dtype = from_string(dtype)
        Var._counter += 1
        self._uid = Var._counter


class Const(Expr):
    """A scalar constant."""

    def __init__(self, value, dtype=None) -> None:
        if dtype is None:
            if isinstance(value, bool):
                dtype = bool_
            elif isinstance(value, int):
                dtype = int32
            else:
                dtype = float32
        self.dtype = from_string(dtype)
        if self.dtype.is_bool:
            self.value = bool(value)
        elif self.dtype.is_integer:
            self.value = int(value)
        else:
            self.value = float(value)


class Cast(Expr):
    """An explicit type conversion, e.g. ``i32(a[i])`` in Figure 4."""

    def __init__(self, dtype, value: Expr) -> None:
        self.dtype = from_string(dtype)
        self.value = value

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.value,)


class BinaryOp(Expr):
    """Base class for arithmetic binary operators."""

    opcode: str = "?"

    def __init__(self, a: Expr, b: Expr) -> None:
        self.a = a
        self.b = b
        self.dtype = common_type(a.dtype, b.dtype)

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.a, self.b)


class Add(BinaryOp):
    opcode = "+"


class Sub(BinaryOp):
    opcode = "-"


class Mul(BinaryOp):
    opcode = "*"


class FloorDiv(BinaryOp):
    opcode = "//"


class Mod(BinaryOp):
    opcode = "%"


class Min(BinaryOp):
    opcode = "min"


class Max(BinaryOp):
    opcode = "max"


class Compare(Expr):
    """A comparison, yielding a boolean."""

    def __init__(self, op: str, a: Expr, b: Expr) -> None:
        if op not in ("==", "!=", "<", "<=", ">", ">="):
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.a = a
        self.b = b
        self.dtype = bool_

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.a, self.b)


class Select(Expr):
    """``cond ? true_value : false_value``."""

    def __init__(self, cond: Expr, true_value: Expr, false_value: Expr) -> None:
        self.cond = cond
        self.true_value = true_value
        self.false_value = false_value
        self.dtype = common_type(true_value.dtype, false_value.dtype)

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.true_value, self.false_value)


class TensorLoad(Expr):
    """A read of one element of a tensor, e.g. ``a[x + r, y + s, rc]``."""

    def __init__(self, tensor, indices: Sequence[ExprLike]) -> None:
        self.tensor = tensor
        self.indices = tuple(as_expr(i, int32) for i in indices)
        if len(self.indices) != len(tensor.shape):
            raise ValueError(
                f"tensor {tensor.name!r} has {len(tensor.shape)} dimensions, "
                f"got {len(self.indices)} indices"
            )
        self.dtype = tensor.dtype

    @property
    def children(self) -> Tuple[Expr, ...]:
        return self.indices


class Reduce(Expr):
    """A reduction over one or more reduce axes.

    ``combiner`` is one of ``"sum"``, ``"max"``, ``"min"``.  ``source`` is the
    expression accumulated for each point of the reduction domain spanned by
    ``axes`` (which must all be reduce axes).
    """

    COMBINERS = ("sum", "max", "min")

    def __init__(self, combiner: str, source: Expr, axes: Sequence) -> None:
        if combiner not in self.COMBINERS:
            raise ValueError(f"unknown reduction combiner {combiner!r}")
        axes = tuple(axes)
        if not axes:
            raise ValueError("reduction requires at least one axis")
        for ax in axes:
            if not getattr(ax, "is_reduce", False):
                raise ValueError(f"axis {ax!r} is not a reduce axis")
        self.combiner = combiner
        self.source = source
        self.axes = axes
        self.dtype = source.dtype

    @property
    def children(self) -> Tuple[Expr, ...]:
        return (self.source,)


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def const(value, dtype=None) -> Const:
    """Create a constant expression."""
    return Const(value, dtype)


def as_expr(value: ExprLike, dtype=None) -> Expr:
    """Coerce a Python number, iteration axis, or Expr into an Expr."""
    if isinstance(value, Expr):
        return value
    # Iteration axes (repro.dsl.axis.IterAxis) stand for their loop variable.
    if isinstance(getattr(value, "var", None), Var):
        return value.var
    if isinstance(value, bool):
        return Const(value, bool_)
    if isinstance(value, int):
        return Const(value, int32 if dtype is None or not from_string(dtype).is_integer else dtype)
    if isinstance(value, float):
        return Const(value, float32 if dtype is None or not from_string(dtype).is_float else dtype)
    raise TypeError(f"cannot convert {value!r} to an expression")


def cast(dtype, value: ExprLike) -> Expr:
    """Explicit cast; folds away no-op casts and constant casts."""
    dtype = from_string(dtype)
    value = as_expr(value)
    if value.dtype == dtype:
        return value
    if isinstance(value, Const):
        return Const(value.value, dtype)
    return Cast(dtype, value)


def sum_reduce(source: Expr, axes) -> Reduce:
    """``sum(source)`` over the given reduce axes (Figure 4's ``sum``)."""
    return Reduce("sum", source, _as_axis_list(axes))


def max_reduce(source: Expr, axes) -> Reduce:
    return Reduce("max", source, _as_axis_list(axes))


def min_reduce(source: Expr, axes) -> Reduce:
    return Reduce("min", source, _as_axis_list(axes))


def _as_axis_list(axes) -> List:
    if isinstance(axes, (list, tuple)):
        return list(axes)
    return [axes]


# ---------------------------------------------------------------------------
# Interning: cached canonical keys and memoized traversals
#
# Expression trees are immutable, so every derived quantity — the post-order
# node list, the canonical key, the simplified form, the affine
# decomposition — can be computed once and attached to the node.  The hot
# paths of the repository (the Inspector's isomorphism matching, the
# Rewriter's candidate generation, the vectorized execution engine's affine
# analysis) re-visit the same subtrees thousands of times; these memos turn
# those re-walks into dictionary lookups.
# ---------------------------------------------------------------------------


@dataclass
class ExprCacheStats:
    """Hit/miss counters for the expression-level memo caches."""

    simplify_hits: int = 0
    simplify_misses: int = 0
    linear_hits: int = 0
    linear_misses: int = 0


_CACHE_STATS = ExprCacheStats()

# Per-node memos are bounded so a long-lived node cannot accumulate entries
# for arbitrarily many variable sets (LRU-by-reset: clear when full).
_MEMO_CAP = 64


def expr_cache_stats() -> ExprCacheStats:
    """The live hit/miss counters of the expression memo caches."""
    return _CACHE_STATS


def reset_expr_cache_stats() -> None:
    """Zero the counters (the per-node memos themselves stay valid)."""
    global _CACHE_STATS
    for f in ("simplify_hits", "simplify_misses", "linear_hits", "linear_misses"):
        setattr(_CACHE_STATS, f, 0)


# The expression-cache *epoch* lets downstream derived caches (most notably
# the executable-plan cache in ``repro.tir.plan``) invalidate themselves when
# the interning layer is cleared: a cached plan bakes in analyses derived
# from interned expressions, so it must not outlive them.
_CACHE_EPOCH = 0


def expr_cache_epoch() -> int:
    """Monotonic counter bumped by :func:`clear_expr_caches`."""
    return _CACHE_EPOCH


def clear_expr_caches() -> None:
    """Invalidate the expression-cache layer.

    Per-node memos live on the (immutable) nodes themselves and stay
    individually correct, so they are left in place; what this call does is
    zero the hit/miss counters and bump the cache *epoch*, which tells every
    derived cache keyed on interned expression state — e.g. the process-wide
    :class:`repro.tir.plan.PlanCache` — to drop its entries.
    """
    global _CACHE_EPOCH
    _CACHE_EPOCH += 1
    reset_expr_cache_stats()


def expr_key(expr: Expr, var_ids: Optional[dict] = None, tensor_ids: Optional[dict] = None):
    """The canonical form of ``expr``: a hashable nested tuple that is equal
    for two trees exactly when they are the same expression.

    A node contributes its class, dtype and opcode (comparison, combiner);
    integer and boolean constants are keyed by value, float constants by bit
    pattern, so ``0.0``, ``-0.0`` and two NaN payloads are different
    programs.  A ``Var`` becomes ``var_ids.get(v, v)`` and a tensor
    ``tensor_ids.get(t, t)``; no DSL class overrides ``__eq__``, so an object
    left in the key compares by identity.  Keys hold Python objects: they are
    process-local and must not be persisted.

    With no id maps the key is remembered on every interior node, so
    comparing trees that share subtrees compares one tuple with itself.
    """
    if isinstance(expr, Var):
        return expr if var_ids is None else var_ids.get(expr, expr)
    if isinstance(expr, Const):
        value = expr.value  # a Python float exactly when the dtype is a float
        return (Const, expr.dtype, struct.pack("<d", value) if type(value) is float else value)
    memo = var_ids is None and tensor_ids is None
    if memo:
        key = expr.__dict__.get("_key")
        if key is not None:
            return key
    if isinstance(expr, TensorLoad):
        tensor = expr.tensor
        head = tensor if tensor_ids is None else tensor_ids.get(tensor, tensor)
    elif isinstance(expr, BinaryOp):
        head = expr.opcode
    elif isinstance(expr, Compare):
        head = expr.op
    elif isinstance(expr, Reduce):
        head = (expr.combiner,) + tuple(expr_key(ax.var, var_ids) for ax in expr.axes)
    else:  # Cast, Select: class and dtype say it all
        head = None
    key = (expr.__class__, expr.dtype, head) + tuple(
        [expr_key(child, var_ids, tensor_ids) for child in expr.children]
    )
    if memo:
        expr._key = key
    return key


def arith_signature(expr: Expr) -> int:
    """A topology/dtype/opcode signature for arithmetic-isomorphism matching.

    Two expressions whose signatures differ can never be arithmetically
    isomorphic in the sense of the Inspector's Algorithm 1: the signature
    folds exactly the properties the recursive match requires at every node
    (data type, leaf-vs-interior topology, cast targets and binary opcodes)
    while abstracting everything register binding is allowed to vary (which
    tensor a leaf loads, its index expressions, constant values).  Cached on
    the node.
    """
    cached = expr.__dict__.get("_asig")
    if cached is not None:
        return cached
    if isinstance(expr, (TensorLoad, Const)):
        sig = hash(("leaf", expr.dtype.name))
    elif isinstance(expr, Cast):
        sig = hash(("cast", expr.dtype.name, arith_signature(expr.value)))
    elif isinstance(expr, BinaryOp):
        sig = hash(
            (
                "bin",
                expr.opcode,
                expr.dtype.name,
                arith_signature(expr.a),
                arith_signature(expr.b),
            )
        )
    else:
        sig = hash(
            (type(expr).__name__, expr.dtype.name)
            + tuple(arith_signature(c) for c in expr.children)
        )
    expr._asig = sig
    return sig


# ---------------------------------------------------------------------------
# Traversal and analysis
# ---------------------------------------------------------------------------


def post_order(expr: Expr) -> Iterator[Expr]:
    """Yield every node of the tree in post-order (children first).

    The node list is computed once per root and cached on it, so repeated
    analyses over the same tree (``free_vars``, ``tensors_referenced``, the
    engine's affine checks) do not re-walk it.
    """
    cached = expr.__dict__.get("_post_cache")
    if cached is None:
        cached = tuple(_post_order_walk(expr))
        expr._post_cache = cached
    return iter(cached)


def _post_order_walk(expr: Expr) -> Iterator[Expr]:
    for child in expr.children:
        yield from _post_order_walk(child)
    yield expr


def free_vars(expr: Expr) -> List[Var]:
    """All distinct Vars referenced by ``expr`` (in first-appearance order)."""
    seen: List[Var] = []
    for node in post_order(expr):
        if isinstance(node, Var) and node not in seen:
            seen.append(node)
    return seen


def tensors_referenced(expr: Expr) -> List:
    """All distinct tensors loaded by ``expr`` (first-appearance order)."""
    seen: List = []
    for node in post_order(expr):
        if isinstance(node, TensorLoad) and node.tensor not in seen:
            seen.append(node.tensor)
    return seen


def structural_equal(a: Expr, b: Expr) -> bool:
    """Whether two expressions are the same tree, variables and tensors by
    identity: their keys (:func:`expr_key`, remembered on the nodes) are equal."""
    return a is b or expr_key(a) == expr_key(b)


def substitute(expr: Expr, mapping: dict) -> Expr:
    """Replace variables (keys) with expressions (values) throughout ``expr``."""
    if isinstance(expr, Var):
        replacement = mapping.get(expr)
        return replacement if replacement is not None else expr
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Cast):
        return cast(expr.dtype, substitute(expr.value, mapping))
    if isinstance(expr, BinaryOp):
        return type(expr)(substitute(expr.a, mapping), substitute(expr.b, mapping))
    if isinstance(expr, Compare):
        return Compare(expr.op, substitute(expr.a, mapping), substitute(expr.b, mapping))
    if isinstance(expr, Select):
        return Select(
            substitute(expr.cond, mapping),
            substitute(expr.true_value, mapping),
            substitute(expr.false_value, mapping),
        )
    if isinstance(expr, TensorLoad):
        return TensorLoad(expr.tensor, [substitute(i, mapping) for i in expr.indices])
    if isinstance(expr, Reduce):
        return Reduce(expr.combiner, substitute(expr.source, mapping), expr.axes)
    raise TypeError(f"unhandled node type {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def simplify(expr: Expr) -> Expr:
    """Lightweight constant folding and algebraic identities.

    This is not a general simplifier; it covers what the lowering pipeline and
    the access analysis need: ``x+0``, ``x*1``, ``x*0``, constant folding of
    integer arithmetic, and nested cast collapsing.

    Results are memoized on the node (trees are immutable), keyed by node
    identity — an LRU whose entries live exactly as long as the subtree they
    describe.  Hit rates are tracked in :func:`expr_cache_stats`.
    """
    if isinstance(expr, (Var, Const)):
        return expr
    cached = expr.__dict__.get("_simplify_cache")
    if cached is not None:
        _CACHE_STATS.simplify_hits += 1
        return cached
    _CACHE_STATS.simplify_misses += 1
    result = _simplify_impl(expr)
    expr._simplify_cache = result
    result._simplify_cache = result  # simplify is idempotent
    return result


def _simplify_impl(expr: Expr) -> Expr:
    if isinstance(expr, Cast):
        inner = simplify(expr.value)
        return cast(expr.dtype, inner)
    if isinstance(expr, BinaryOp):
        a = simplify(expr.a)
        b = simplify(expr.b)
        if isinstance(a, Const) and isinstance(b, Const):
            return _fold_binary(type(expr), a, b)
        if isinstance(expr, Add):
            if _is_zero(a):
                return b
            if _is_zero(b):
                return a
        if isinstance(expr, Sub) and _is_zero(b):
            return a
        if isinstance(expr, Mul):
            if _is_zero(a) or _is_zero(b):
                return Const(0, expr.dtype)
            if _is_one(a):
                return b
            if _is_one(b):
                return a
        if isinstance(expr, FloorDiv) and _is_one(b):
            return a
        if isinstance(expr, Mod) and _is_one(b):
            return Const(0, expr.dtype)
        return type(expr)(a, b)
    if isinstance(expr, Compare):
        a, b = simplify(expr.a), simplify(expr.b)
        if isinstance(a, Const) and isinstance(b, Const):
            ops = {
                "==": a.value == b.value,
                "!=": a.value != b.value,
                "<": a.value < b.value,
                "<=": a.value <= b.value,
                ">": a.value > b.value,
                ">=": a.value >= b.value,
            }
            return Const(ops[expr.op], bool_)
        return Compare(expr.op, a, b)
    if isinstance(expr, Select):
        cond = simplify(expr.cond)
        if isinstance(cond, Const):
            return simplify(expr.true_value if cond.value else expr.false_value)
        return Select(cond, simplify(expr.true_value), simplify(expr.false_value))
    if isinstance(expr, TensorLoad):
        return TensorLoad(expr.tensor, [simplify(i) for i in expr.indices])
    if isinstance(expr, Reduce):
        return Reduce(expr.combiner, simplify(expr.source), expr.axes)
    return expr


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1


def _fold_binary(cls, a: Const, b: Const) -> Const:
    dtype = common_type(a.dtype, b.dtype)
    x, y = a.value, b.value
    if cls is Add:
        return Const(x + y, dtype)
    if cls is Sub:
        return Const(x - y, dtype)
    if cls is Mul:
        return Const(x * y, dtype)
    if cls is FloorDiv:
        return Const(x // y, dtype)
    if cls is Mod:
        return Const(x % y, dtype)
    if cls is Min:
        return Const(min(x, y), dtype)
    if cls is Max:
        return Const(max(x, y), dtype)
    raise TypeError(f"cannot fold {cls.__name__}")


# ---------------------------------------------------------------------------
# Linear (affine) form extraction — used by the access-pattern analysis and
# the operand-generation rules (strides of the tensorized loop variables).
# ---------------------------------------------------------------------------


def extract_linear(expr: Expr, variables: Iterable[Var]) -> Optional[Tuple[dict, int]]:
    """Express ``expr`` as ``sum(coeff[v] * v) + constant`` over ``variables``.

    Returns ``(coefficients, constant)`` or ``None`` if the expression is not
    affine in the given variables (e.g. contains ``v * w`` or a non-linear
    function).  Variables not listed are treated as symbolic *parameters* only
    when they never appear — any unknown variable makes the result ``None``.

    Decompositions are memoized per node and per variable set (a bounded
    per-node cache); the returned coefficient dict is always a fresh copy, so
    callers may mutate it freely.
    """
    variables = list(variables)
    cache_key = tuple(variables)
    cache = expr.__dict__.get("_linear_cache")
    if cache is not None and cache_key in cache:
        _CACHE_STATS.linear_hits += 1
        hit = cache[cache_key]
        return None if hit is None else (dict(hit[0]), hit[1])
    _CACHE_STATS.linear_misses += 1

    def walk(node: Expr) -> Optional[Tuple[dict, int]]:
        if isinstance(node, Const):
            if not node.dtype.is_integer and not node.dtype.is_bool:
                return None
            return {}, int(node.value)
        if isinstance(node, Var):
            if node in variables:
                return {node: 1}, 0
            return None
        if isinstance(node, Cast):
            return walk(node.value)
        if isinstance(node, Add):
            lhs, rhs = walk(node.a), walk(node.b)
            if lhs is None or rhs is None:
                return None
            return _merge(lhs, rhs, 1)
        if isinstance(node, Sub):
            lhs, rhs = walk(node.a), walk(node.b)
            if lhs is None or rhs is None:
                return None
            return _merge(lhs, rhs, -1)
        if isinstance(node, Mul):
            lhs, rhs = walk(node.a), walk(node.b)
            if lhs is None or rhs is None:
                return None
            lc, lk = lhs
            rc, rk = rhs
            if lc and rc:
                return None  # product of two variable terms: non-affine
            if lc:
                scale, (coeffs, k) = rk, (lc, lk)
                if rc:
                    return None
            else:
                scale, (coeffs, k) = lk, (rc, rk)
            return {v: c * scale for v, c in coeffs.items()}, k * scale
        return None

    def _merge(lhs, rhs, sign):
        lc, lk = lhs
        rc, rk = rhs
        coeffs = dict(lc)
        for v, c in rc.items():
            coeffs[v] = coeffs.get(v, 0) + sign * c
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        return coeffs, lk + sign * rk

    result = walk(simplify(expr))
    if cache is None:
        cache = expr._linear_cache = {}
    elif len(cache) >= _MEMO_CAP:
        cache.clear()
    cache[cache_key] = None if result is None else (dict(result[0]), result[1])
    return result
