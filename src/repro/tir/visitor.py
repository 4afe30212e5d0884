"""Traversals, the mutator and the loop-nest reading of tensor-IR statements.

These are the traversal workhorses used by the tensorize replacement pass,
the codegen and the cost models.  :func:`read_nest` is the only chain
decomposition and :class:`Nest` the only place a nest's facts are derived
(accumulation form, parallel / reduction split, injectivity); the static
passes, the plan compiler and the C emitter all read it.  :func:`remembered`
keeps what is derived from a function body — the nests, every pass result,
the plan-cache key (:func:`~repro.tir.plan.func_key`) — on the ``PrimFunc``,
once per body.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable, Iterator, List, NamedTuple, Optional, Set, Tuple

from ..dsl import expr as E
from ..dsl.tensor import Tensor
from .stmt import (
    Allocate,
    AttrStmt,
    For,
    IfThenElse,
    IntrinsicCall,
    SeqStmt,
    Stmt,
    Store,
)

__all__ = [
    "StmtMutator",
    "walk",
    "collect",
    "count_nodes",
    "Accumulation",
    "accumulation_form",
    "same_index",
    "Nest",
    "read_nest",
    "iter_nests",
    "remembered",
]


class StmtMutator:
    """Rebuild a statement tree; override ``mutate_<node>`` to transform."""

    def mutate(self, stmt: Stmt) -> Stmt:
        method = getattr(self, f"mutate_{type(stmt).__name__.lower()}", None)
        if method is not None:
            return method(stmt)
        return self.generic_mutate(stmt)

    def generic_mutate(self, stmt: Stmt) -> Stmt:
        if isinstance(stmt, For):
            body = self.mutate(stmt.body)
            if body is stmt.body:
                return stmt
            return For(stmt.var, stmt.extent, body, stmt.kind, stmt.thread_tag, stmt.pragmas)
        if isinstance(stmt, SeqStmt):
            new = [self.mutate(s) for s in stmt.stmts]
            if all(a is b for a, b in zip(new, stmt.stmts)):
                return stmt
            return SeqStmt(new)
        if isinstance(stmt, IfThenElse):
            then_case = self.mutate(stmt.then_case)
            else_case = self.mutate(stmt.else_case) if stmt.else_case is not None else None
            if then_case is stmt.then_case and else_case is stmt.else_case:
                return stmt
            return IfThenElse(stmt.condition, then_case, else_case, stmt.likely)
        if isinstance(stmt, AttrStmt):
            body = self.mutate(stmt.body)
            if body is stmt.body:
                return stmt
            return AttrStmt(stmt.key, stmt.value, body)
        if isinstance(stmt, Allocate):
            body = self.mutate(stmt.body)
            if body is stmt.body:
                return stmt
            return Allocate(stmt.tensor, body, stmt.scope)
        # Leaves: Store, IntrinsicCall
        return stmt

    # Named hooks subclasses override.
    def mutate_for(self, stmt: For) -> Stmt:
        return self.generic_mutate(stmt)

    def mutate_seqstmt(self, stmt: SeqStmt) -> Stmt:
        return self.generic_mutate(stmt)

    def mutate_attrstmt(self, stmt: AttrStmt) -> Stmt:
        return self.generic_mutate(stmt)


def _children(stmt: Stmt) -> List[Stmt]:
    if isinstance(stmt, For):
        return [stmt.body]
    if isinstance(stmt, SeqStmt):
        return list(stmt.stmts)
    if isinstance(stmt, IfThenElse):
        out = [stmt.then_case]
        if stmt.else_case is not None:
            out.append(stmt.else_case)
        return out
    if isinstance(stmt, (AttrStmt, Allocate)):
        return [stmt.body]
    return []


def walk(stmt: Stmt) -> Iterator[Stmt]:
    """Yield every statement node in pre-order."""
    yield stmt
    for child in _children(stmt):
        yield from walk(child)


def collect(stmt: Stmt, predicate: Callable[[Stmt], bool]) -> List[Stmt]:
    """All nodes satisfying ``predicate``, in pre-order."""
    return [s for s in walk(stmt) if predicate(s)]


def count_nodes(stmt: Stmt, node_type: Optional[type] = None) -> int:
    """Number of nodes (optionally of a specific type) in the tree."""
    if node_type is None:
        return sum(1 for _ in walk(stmt))
    return sum(1 for s in walk(stmt) if isinstance(s, node_type))


def remembered(key: str) -> Callable:
    """Make ``fn(func)`` run once per function body: the result is kept in
    ``func._facts[key]``, and the record is dropped when ``func.body`` is
    another object than it was derived from (statements are immutable, so
    identity is equality) or :func:`~repro.dsl.expr.clear_expr_caches` moved
    the epoch.  Results are shared between callers: treat them as read-only."""

    def decorate(fn: Callable) -> Callable:
        @wraps(fn)
        def lookup(func):
            facts = func.__dict__.get("_facts")
            epoch = E.expr_cache_epoch()
            if facts is None or facts["body"] is not func.body or facts["epoch"] != epoch:
                facts = func._facts = {"body": func.body, "epoch": epoch}
            if key not in facts:
                facts[key] = fn(func)
            return facts[key]

        return lookup

    return decorate


class Accumulation(NamedTuple):
    """The read-modify-write form ``t[i] = t[i] (+) rest`` of a store."""

    rest: E.Expr
    combiner: str  # "sum" | "max" | "min"
    load_is_left: bool  # written ``t[i] (+) rest``; False for ``rest (+) t[i]``


_COMBINERS = {E.Add: "sum", E.Max: "max", E.Min: "min"}


def same_index(a, b) -> bool:
    """Whether two index tuples are structurally the same address."""
    return len(a) == len(b) and all(map(E.structural_equal, a, b))


def accumulation_form(value: E.Expr, tensor: Tensor, indices) -> Optional[Accumulation]:
    """``value`` read as ``tensor[indices] (+) rest``, either operand order:
    the one accumulate-form matcher, for stores and instruction descriptions."""
    combiner = _COMBINERS.get(value.__class__)
    if combiner is None:
        return None
    for load, rest in ((value.a, value.b), (value.b, value.a)):
        if (
            isinstance(load, E.TensorLoad)
            and load.tensor is tensor
            and same_index(load.indices, indices)
        ):
            return Accumulation(rest, combiner, load is value.a)
    return None


@dataclass
class Nest:
    """One loop nest: a chain of canonical ``For`` loops, ``likely`` guards
    and pragma scopes ending in a ``Store`` or an ``IntrinsicCall``.  Derived
    facts are computed on first use and kept, so build a new ``Nest`` rather
    than reassigning a field of one that was already read."""

    stmt: Stmt  # the nest root (outermost For / guard)
    axes: List[Tuple[E.Var, int]]
    guards: List[E.Expr]
    body: Stmt  # Store | IntrinsicCall | anything else (unanalyzable)
    scopes: Tuple[Allocate, ...] = ()  # enclosing allocations, outermost first
    index: int = 0  # position in walk order

    @property
    def name(self) -> str:
        loops = ".".join(v.name for v, _ in self.axes) or "<scalar>"
        if isinstance(self.body, Store):
            return f"{loops}->store[{self.body.tensor.name}]"
        if isinstance(self.body, IntrinsicCall):
            return f"{loops}->intrinsic[{self.body.intrin.name}]"
        return f"{loops}->{type(self.body).__name__}"

    @property
    def allocated(self) -> Set[Tensor]:
        """Tensors an enclosing ``Allocate`` introduced (and zero-filled)."""
        return {scope.tensor for scope in self.scopes}

    @cached_property
    def written(self) -> Optional[Tuple[Tensor, Tuple[E.Expr, ...]]]:
        """``(tensor, indices)`` the nest writes; ``None`` for other bodies."""
        if isinstance(self.body, Store):
            return self.body.tensor, self.body.indices
        if isinstance(self.body, IntrinsicCall):
            out = self.body.output
            return out.program_tensor, tuple(out.program_indices)
        return None

    @cached_property
    def parallel(self) -> Tuple[int, ...]:
        """Positions (in ``axes``) of the loops the written index mentions:
        distinct iterations of these address distinct regions."""
        mentioned = {v for idx in self.written[1] for v in E.free_vars(idx)}
        return tuple(k for k, (v, _) in enumerate(self.axes) if v in mentioned)

    @cached_property
    def reduction(self) -> Tuple[int, ...]:
        """Positions of the other loops: the sequential accumulation rounds."""
        return tuple(k for k in range(len(self.axes)) if k not in self.parallel)

    @cached_property
    def accumulation(self) -> Optional[Accumulation]:
        """The store's accumulation form (``None``: plain store, or no store).
        Operand order is observable — it picks the payload of ``NaN + NaN``."""
        store = self.body
        if not isinstance(store, Store):
            return None
        return accumulation_form(store.value, store.tensor, store.indices)

    @cached_property
    def carried(self) -> bool:
        """Whether the stored value reads the target tensor anywhere but the
        accumulator operand: a loop-carried dependence nobody may reorder."""
        if not isinstance(self.body, Store):
            return False
        acc = self.accumulation
        rest = self.body.value if acc is None else acc.rest
        return self.body.tensor in E.tensors_referenced(rest)

    def injective(self, outer=None) -> bool:
        """Whether distinct points of the parallel loops write distinct
        elements: the flat strides of the written index over them form a
        mixed radix (a loop under a div/mod, or a non-quasi-affine index, is
        not provably so).  ``outer`` bounds the variables of enclosing loops."""
        from ..analysis.interval import axis_strides, loop_env, mixed_radix

        tensor, indices = self.written
        band = {v: n for v, n in (self.axes[k] for k in self.parallel) if n > 1}
        env = {**(outer or {}), **loop_env(self.axes)}
        address = axis_strides(indices, tensor.shape, env, band)
        return address is not None and mixed_radix(
            (abs(address[0][v]), n - 1) for v, n in band.items()
        )


def read_nest(root: Stmt, scopes: Tuple[Allocate, ...] = (), index: int = 0) -> Nest:
    """Decompose the chain of loops, one-armed guards and pragma scopes at ``root``."""
    axes: List[Tuple[E.Var, int]] = []
    guards: List[E.Expr] = []
    stmt = root
    while True:
        if isinstance(stmt, For):
            axes.append((stmt.var, stmt.extent))
            stmt = stmt.body
        elif isinstance(stmt, IfThenElse) and stmt.else_case is None:
            guards.append(stmt.condition)
            stmt = stmt.then_case
        elif isinstance(stmt, AttrStmt):
            stmt = stmt.body
        else:
            return Nest(root, axes, guards, stmt, scopes, index)


@remembered("nests")
def _nests(func) -> List[Nest]:
    nests: List[Nest] = []

    def visit(stmt: Stmt, scopes: Tuple[Allocate, ...]) -> None:
        if isinstance(stmt, SeqStmt):
            for s in stmt.stmts:
                visit(s, scopes)
        elif isinstance(stmt, AttrStmt):
            visit(stmt.body, scopes)
        elif isinstance(stmt, Allocate):
            visit(stmt.body, scopes + (stmt,))
        else:
            nests.append(read_nest(stmt, scopes, len(nests)))

    visit(func.body, ())
    return nests


def iter_nests(func) -> Iterator[Nest]:
    """The nests of ``func`` in walk order, read once per function body.

    Sequences and pragma scopes are transparent, ``Allocate`` introduces a
    buffer for the rest of its scope, each maximal ``For``/guard chain is one
    nest, and so is a statement of an unknown kind (the structural pass
    names it, the plan compiler refuses it).
    """
    return iter(_nests(func))
