"""Integer interval arithmetic over tensor-IR index expressions.

The abstract domain of the static verification tier (Section II-C.3's
"analyzable programs" claim made checkable): every loop variable of a
canonical nest ranges over ``[0, extent)``, so any index expression built
from loop variables evaluates to a computable integer interval.  Two layers
cooperate:

* :func:`expr_interval` — a sound recursive evaluator covering the whole
  expression language (including ``//``/``%``, ``min``/``max``, ``Select``,
  and the ``Reduce`` of an instruction description); unknown leaves yield
  ``None`` ("cannot bound"), never a wrong interval;
* :func:`refine_with_guards` — affine composition with ``likely`` guards: a
  residue guard ``g < b`` tightens the interval of any index that is an
  affine multiple of ``g`` (``idx = s*g + rest``), which is exactly the shape
  imperfect splits produce.

Both build on the memoized :func:`repro.dsl.expr.extract_linear`
decomposition, so the hot affine path shares its cache with the execution
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..dsl import expr as E

__all__ = [
    "Interval",
    "loop_env",
    "expr_interval",
    "affine_interval",
    "linearize",
    "atom_root",
    "atom_interval",
    "row_major_strides",
    "axis_strides",
    "mixed_radix",
    "refine_with_guards",
    "prove_in_range",
]


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        corners = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(corners), max(corners))

    def scaled(self, k: int) -> "Interval":
        if k >= 0:
            return Interval(self.lo * k, self.hi * k)
        return Interval(self.hi * k, self.lo * k)

    def floordiv(self, other: "Interval") -> Optional["Interval"]:
        """``self // other`` (Python floor semantics); ``None`` if 0 ∈ other."""
        if other.lo <= 0 <= other.hi:
            return None
        corners = (
            self.lo // other.lo,
            self.lo // other.hi,
            self.hi // other.lo,
            self.hi // other.hi,
        )
        return Interval(min(corners), max(corners))

    def mod(self, other: "Interval") -> Optional["Interval"]:
        """``self % other`` for a constant positive modulus."""
        if other.lo != other.hi or other.lo <= 0:
            return None
        m = other.lo
        if 0 <= self.lo and self.hi < m:
            return self  # already reduced
        return Interval(0, m - 1)

    def min_with(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    # -- predicates -------------------------------------------------------
    def within(self, lo: int, hi: int) -> bool:
        return lo <= self.lo and self.hi <= hi

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


Env = Dict[E.Var, Interval]


def loop_env(axes: Iterable[Tuple[E.Var, int]]) -> Env:
    """The interval environment of a canonical nest: ``var ∈ [0, extent-1]``."""
    return {var: Interval(0, int(extent) - 1) for var, extent in axes}


def affine_interval(expr: E.Expr, env: Env) -> Optional[Interval]:
    """Interval of an affine expression via :func:`extract_linear` (fast path)."""
    lin = E.extract_linear(expr, list(env))
    if lin is None:
        return None
    coeffs, const = lin
    total = Interval(const, const)
    for var, c in coeffs.items():
        total = total + env[var].scaled(c)
    return total


def expr_interval(expr: E.Expr, env: Env, load_range=None) -> Optional[Interval]:
    """Sound interval of ``expr`` under ``env``; ``None`` when unbounded.

    ``load_range`` optionally maps a :class:`~repro.dsl.expr.TensorLoad` to an
    interval (the dtype lint passes the loaded tensor's value range); index
    analysis leaves it ``None``, so data-dependent indices are "cannot
    bound", never wrongly bounded.
    """
    fast = affine_interval(expr, env)
    if fast is not None:
        return fast
    if isinstance(expr, E.Const):
        if expr.dtype.is_float:
            return None
        return Interval(int(expr.value), int(expr.value))
    if isinstance(expr, E.Var):
        return env.get(expr)
    if isinstance(expr, E.Cast):
        inner = expr_interval(expr.value, env, load_range)
        if inner is None:
            return None
        if expr.dtype.is_integer or expr.dtype.is_bool:
            lo, hi = int(expr.dtype.min_value), int(expr.dtype.max_value)
            if inner.within(lo, hi):
                return inner
            # Out-of-range casts wrap: all we know is the target's range.
            return Interval(lo, hi)
        return None
    if isinstance(expr, E.BinaryOp):
        a = expr_interval(expr.a, env, load_range)
        b = expr_interval(expr.b, env, load_range)
        if a is None or b is None:
            return None
        if isinstance(expr, E.Add):
            return a + b
        if isinstance(expr, E.Sub):
            return a - b
        if isinstance(expr, E.Mul):
            return a * b
        if isinstance(expr, E.FloorDiv):
            return a.floordiv(b)
        if isinstance(expr, E.Mod):
            return a.mod(b)
        if isinstance(expr, E.Min):
            return a.min_with(b)
        return a.max_with(b)
    if isinstance(expr, E.Compare):
        return Interval(0, 1)
    if isinstance(expr, E.Select):
        t = expr_interval(expr.true_value, env, load_range)
        f = expr_interval(expr.false_value, env, load_range)
        if t is None or f is None:
            return None
        return t.hull(f)
    if isinstance(expr, E.Reduce):
        sub = dict(env)
        n = 1
        for ax in expr.axes:
            sub[ax.var] = Interval(0, int(ax.extent) - 1)
            n *= int(ax.extent)
        src = expr_interval(expr.source, sub, load_range)
        if src is None:
            return None
        if expr.combiner == "sum":
            return Interval(min(0, src.lo * n), max(0, src.hi * n))
        return src
    if isinstance(expr, E.TensorLoad):
        if load_range is not None:
            return load_range(expr)
        return None
    return None


# -- quasi-affine linearization ---------------------------------------------
#
# Fused loops address buffers through ``//`` and ``%`` of the fused variable
# (``f // 3 // 17``, ``(f % 3) * 8 + ow``), which is outside the affine
# domain of :func:`extract_linear`.  :func:`linearize` recovers linearity by
# *atom splitting*: each ``α // c`` / ``α % c`` over an atom ``α`` (a loop
# variable or a previously split atom) becomes a synthetic atom with the
# induced interval (``α//c ∈ [lo//c, hi//c]``, ``α%c ∈ [0, c-1]``).  Atoms
# are canonical tuples, so the same subterm in an index and in its ``likely``
# guard linearizes to the *same* atom and affine reasoning composes across
# them exactly as it does for plain variables.

Atom = object  # a Var, or ("div"|"mod", parent_atom, divisor)


def atom_root(atom) -> E.Var:
    """The loop variable a (possibly nested) split atom derives from."""
    while isinstance(atom, tuple):
        atom = atom[1]
    return atom


def atom_interval(atom, env: Env) -> Optional[Interval]:
    """Interval of an atom from the root variable's range alone."""
    if not isinstance(atom, tuple):
        return env.get(atom)
    kind, parent, c = atom
    piv = atom_interval(parent, env)
    if piv is None:
        return None
    if kind == "div":
        return piv.floordiv(Interval(c, c))
    return Interval(0, c - 1)


def linearize(expr: E.Expr, env: Env):
    """Quasi-affine decomposition of ``expr`` over ``env``'s variables.

    Returns ``(coeffs, const, atom_env)`` where ``coeffs`` maps atoms
    (variables and div/mod split atoms) to integer coefficients and
    ``atom_env`` bounds every atom, or ``None`` when ``expr`` is not
    quasi-affine (data-dependent indices, variable divisors, products of
    variables).
    """
    atom_env: Dict = dict(env)
    lin = _linearize(expr, env, atom_env)
    if lin is None:
        return None
    coeffs, const = lin
    return coeffs, const, atom_env


def _linearize(expr: E.Expr, env: Env, atom_env: Dict):
    if isinstance(expr, E.Const):
        if expr.dtype.is_float:
            return None
        return {}, int(expr.value)
    if isinstance(expr, E.Var):
        if expr not in env:
            return None
        return {expr: 1}, 0
    if isinstance(expr, E.Cast):
        # Index casts are book-keeping; wraparound of an index that large
        # would already fail the bounds check on the unwrapped value.
        return _linearize(expr.value, env, atom_env)
    if isinstance(expr, (E.Add, E.Sub)):
        a = _linearize(expr.a, env, atom_env)
        b = _linearize(expr.b, env, atom_env)
        if a is None or b is None:
            return None
        sign = 1 if isinstance(expr, E.Add) else -1
        coeffs = dict(a[0])
        for atom, c in b[0].items():
            coeffs[atom] = coeffs.get(atom, 0) + sign * c
        return {k: c for k, c in coeffs.items() if c != 0}, a[1] + sign * b[1]
    if isinstance(expr, E.Mul):
        a = _linearize(expr.a, env, atom_env)
        b = _linearize(expr.b, env, atom_env)
        if a is None or b is None:
            return None
        if a[0] and b[0]:
            return None  # product of two non-constant parts
        if b[0]:
            a, b = b, a
        k = b[1]
        return {atom: c * k for atom, c in a[0].items() if c * k != 0}, a[1] * k
    if isinstance(expr, (E.FloorDiv, E.Mod)):
        b = _linearize(expr.b, env, atom_env)
        if b is None or b[0] or b[1] <= 0:
            return None
        c = b[1]
        a = _linearize(expr.a, env, atom_env)
        if a is None:
            return None
        a_coeffs, a_const = a
        if not a_coeffs:
            v = a_const // c if isinstance(expr, E.FloorDiv) else a_const % c
            return {}, v
        if len(a_coeffs) != 1 or a_const != 0:
            return None
        ((atom, k),) = a_coeffs.items()
        if k != 1:
            return None
        iv = atom_env.get(atom)
        if iv is None:
            return None
        if isinstance(expr, E.FloorDiv):
            if 0 <= iv.lo and iv.hi < c:
                return {}, 0  # the quotient is identically zero
            derived = ("div", atom, c)
            atom_env.setdefault(derived, iv.floordiv(Interval(c, c)))
            return {derived: 1}, 0
        if 0 <= iv.lo and iv.hi < c:
            return {atom: 1}, 0  # already reduced: α % c == α
        derived = ("mod", atom, c)
        atom_env.setdefault(derived, Interval(0, c - 1))
        return {derived: 1}, 0
    return None


def row_major_strides(shape) -> List[int]:
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    return strides


def axis_strides(indices, shape, env: Env, axis_vars):
    """Row-major flat ``(strides, offset)`` of ``indices`` over ``axis_vars``.

    ``strides`` maps every member of ``axis_vars`` to its flat element
    stride; ``offset`` is the constant term.  Every other variable of ``env``
    (and its div/mod atoms) is a symbolic parameter and contributes to
    neither.  ``None`` when an index is not quasi-affine or an axis sits
    under a div/mod — the address is then not a stride pattern at all.
    """
    strides = dict.fromkeys(axis_vars, 0)
    offset = 0
    for idx, stride in zip(indices, row_major_strides(shape)):
        lin = linearize(idx, env)
        if lin is None:
            return None
        coeffs, const, _ = lin
        offset += const * stride
        for atom, coeff in coeffs.items():
            root = atom_root(atom)
            if root in strides:
                if atom is not root:
                    return None
                strides[root] += coeff * stride
    return strides, offset


def mixed_radix(terms, reach: int = 0) -> bool:
    """Whether ``sum(coeff * x)``, ``x`` in ``[0, width]`` per ``(coeff, width)``
    term, is injective: in ascending order each ``coeff`` clears the reach of
    all smaller terms (starting from ``reach``, e.g. the width of one tile)."""
    for coeff, width in sorted(terms):
        if coeff <= reach:
            return False
        reach += coeff * width
    return True


def _linear_interval(coeffs: Dict, const: int, atom_env: Dict) -> Optional[Interval]:
    total = Interval(const, const)
    for atom, c in coeffs.items():
        iv = atom_env.get(atom)
        if iv is None:
            return None
        total = total + iv.scaled(c)
    return total


def refine_with_guards(
    expr: E.Expr,
    base: Optional[Interval],
    guards: Sequence[E.Expr],
    env: Env,
) -> Tuple[Optional[Interval], bool]:
    """Tighten ``base`` using quasi-affine ``likely`` guards; returns
    ``(interval, used_guard)``.

    A guard ``g < b`` caps any index of the shape ``idx = s*g + rest`` (with
    integer ``s > 0`` and ``rest`` quasi-affine over the remaining atoms) at
    ``s*(b-1) + max(rest)`` — the exact relationship between an imperfect
    split's residue guard and the loads that address through the guarded
    axis.  Index and guard are decomposed with :func:`linearize`, so the
    composition also fires when both address through fused-variable
    ``//``/``%`` terms.
    """
    lin = linearize(expr, env)
    if lin is None:
        return base, False
    coeffs, const, aenv = lin
    interval = base
    used = False
    for guard in guards:
        bound_expr = _guard_upper_bound(guard)
        if bound_expr is None:
            continue
        g_expr, bound = bound_expr
        g_lin = linearize(g_expr, env)
        if g_lin is None or not g_lin[0]:
            continue
        g_coeffs, g_const, g_aenv = g_lin
        aenv_all = {**aenv, **g_aenv}
        scale = _common_scale(coeffs, g_coeffs)
        if scale is None:
            continue
        # rest = idx - scale * g, quasi-affine over the remaining atoms.
        rest = Interval(const - scale * g_const, const - scale * g_const)
        ok = True
        for atom, c in coeffs.items():
            rc = c - scale * g_coeffs.get(atom, 0)
            if rc == 0:
                continue
            iv = aenv_all.get(atom)
            if iv is None:
                ok = False
                break
            rest = rest + iv.scaled(rc)
        if not ok:
            continue
        # g ranges over [g_lo, b-1] inside the guarded region.
        g_iv = _linear_interval(g_coeffs, g_const, aenv_all)
        g_lo = g_iv.lo if g_iv is not None else None
        g_hi = bound - 1
        if g_iv is not None:
            g_hi = min(g_hi, g_iv.hi)
        if g_lo is None or g_lo > g_hi:
            continue
        capped = Interval(g_lo, g_hi).scaled(scale) + rest
        if interval is not None:
            lo, hi = max(interval.lo, capped.lo), min(interval.hi, capped.hi)
            if lo > hi:
                continue  # guard excludes the whole range: no refinement
            capped = Interval(lo, hi)
        interval = capped
        used = True
    return interval, used


def _guard_upper_bound(guard: E.Expr) -> Optional[Tuple[E.Expr, int]]:
    """Normalise a guard to ``(expr, exclusive_upper_bound)`` when possible."""
    if not isinstance(guard, E.Compare):
        return None
    if guard.op == "<" and isinstance(guard.b, E.Const):
        return guard.a, int(guard.b.value)
    if guard.op == "<=" and isinstance(guard.b, E.Const):
        return guard.a, int(guard.b.value) + 1
    if guard.op == ">" and isinstance(guard.a, E.Const):
        return guard.b, int(guard.a.value)
    if guard.op == ">=" and isinstance(guard.a, E.Const):
        return guard.b, int(guard.a.value) + 1
    return None


def _common_scale(coeffs: Dict, g_coeffs: Dict) -> Optional[int]:
    """The positive integer ``s`` with ``coeffs ⊇ s * g_coeffs``, if any."""
    scale: Optional[int] = None
    for var, gc in g_coeffs.items():
        if gc == 0:
            continue
        c = coeffs.get(var, 0)
        if c == 0 or c % gc != 0:
            return None
        s = c // gc
        if s <= 0:
            return None
        if scale is None:
            scale = s
        elif s != scale:
            return None
    return scale


def prove_in_range(
    expr: E.Expr,
    extent: int,
    env: Env,
    guards: Sequence[E.Expr] = (),
) -> Tuple[bool, bool, Optional[Interval]]:
    """Prove ``0 <= expr < extent``; returns ``(proved, used_guard, interval)``.

    ``used_guard`` distinguishes *unconditional* proofs (valid at every grid
    point, so the engine may elide its masked-gather clamps) from proofs that
    hold only inside the ``likely``-guarded region.
    """
    base = expr_interval(expr, env)
    if base is not None and base.within(0, extent - 1):
        return True, False, base
    refined, used = refine_with_guards(expr, base, guards, env)
    if refined is not None and refined.within(0, extent - 1):
        return True, used, refined
    return False, False, refined if refined is not None else base
