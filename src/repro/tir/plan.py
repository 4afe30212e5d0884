"""Process-wide caching of executable plans.

Compiling a :class:`~repro.tir.lower.PrimFunc` into an
:class:`~repro.tir.engine.ExecutablePlan` derives the full affine analysis of
its loop nests — useful work, but work a model with fifty near-identical
convolution layers would otherwise repeat fifty times.  The
:class:`PlanCache` recognises *the same program* in different objects —
different ``Var``/``Tensor`` objects, same program — and hands out one
shared plan:

* the cache key is :func:`func_key`, the function's canonical form: the
  dtype/shape signature of its parameters plus every statement and
  expression (:func:`repro.dsl.expr.expr_key`), variables numbered in binding
  order and tensors by parameter position / allocation order.  Equal keys
  *are* equal programs, so a lookup is one dict probe — no bucket, no
  confirming walk — and functions differing only in buffer contents share a
  plan on purpose while a float constant's sign bit, a shape or a dtype
  never does;
* the key holds Python objects (the intrinsic, its register tensors), so it
  is process-local: anything that outlives the process needs its own stable
  digest;
* plans bake in analyses derived from the expression interning layer, so the
  cache invalidates itself when :func:`repro.dsl.expr.clear_expr_caches`
  bumps the cache epoch;
* entries are LRU-bounded; eviction only drops the cache reference — plans
  already handed out keep working.

The cache is consulted by :class:`~repro.tir.executor.Executor` (the
repository-wide execution entry point) on its vectorized and native tiers,
which is what makes warm-plan execution the default everywhere.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

from ..dsl import expr as E
from ..telemetry import metrics as _metrics
from .engine import ExecutablePlan, compile_plan
from .lower import PrimFunc
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
from .visitor import remembered

__all__ = [
    "PlanCache",
    "PlanCacheStats",
    "plan_cache",
    "FuncKey",
    "func_key",
    "func_signature",
    "func_structural_hash",
    "func_structural_equal",
]


# ---------------------------------------------------------------------------
# The canonical form of a whole function
# ---------------------------------------------------------------------------


def func_signature(func: PrimFunc) -> Tuple:
    """The dtype/shape signature of a function's parameters.

    Part of :func:`func_key`: two functions whose buffers differ in shape or
    element type must never share a plan, whatever their loop structure.
    """
    return tuple((t.shape, t.dtype.name) for t in func.params)


class FuncKey:
    """A function's canonical form with its hash computed once."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: Tuple) -> None:
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FuncKey) and self._hash == other._hash and self.parts == other.parts
        )


@remembered("key")
def func_key(func: PrimFunc) -> FuncKey:
    """What program ``func`` is: equal keys exactly when two functions are the
    same program over positionally matched parameters.

    Pragma scopes are transparent (annotations do not change what a plan
    executes); a loop or intrinsic axis binds its variable, and an
    ``Allocate`` its tensor, to the next ordinal, replacing any earlier
    binding.  Remembered per ``func.body``, so every lookup of one function
    hands back the same key object.
    """
    tensor_ids: Dict[object, int] = {t: i for i, t in enumerate(func.params)}
    var_ids: Dict[E.Var, int] = {}
    ordinal = itertools.count(len(tensor_ids))

    def expr(e: E.Expr):
        return E.expr_key(e, var_ids, tensor_ids)

    def exprs(items) -> Tuple:
        return tuple(map(expr, items))

    def tensor(t):
        return tensor_ids.get(t, t)

    def stmt(s: Stmt) -> Tuple:
        while isinstance(s, AttrStmt):
            s = s.body
        if isinstance(s, SeqStmt):
            return (SeqStmt,) + tuple(map(stmt, s.stmts))
        if isinstance(s, For):
            var_ids[s.var] = next(ordinal)
            return (For, s.extent, stmt(s.body))
        if isinstance(s, IfThenElse):
            condition = expr(s.condition)
            then_case = stmt(s.then_case)
            else_case = None if s.else_case is None else stmt(s.else_case)
            return (IfThenElse, s.likely, condition, then_case, else_case)
        if isinstance(s, Store):
            return (Store, tensor(s.tensor), exprs(s.indices), expr(s.value))
        if isinstance(s, Allocate):
            tensor_ids[s.tensor] = next(ordinal)
            return (Allocate, s.tensor.shape, s.tensor.dtype.name, stmt(s.body))
        if isinstance(s, IntrinsicCall):
            for ax in s.axes:
                var_ids[ax.var] = next(ordinal)
            bindings = tuple(
                (b.intrin_tensor, exprs(b.intrin_indices), tensor(b.program_tensor), exprs(b.program_indices))
                for b in (*s.inputs, s.output)
            )
            return (IntrinsicCall, s.intrin, s.reads_output, tuple(ax.extent for ax in s.axes), bindings)
        raise TypeError(f"unhandled statement type {type(s).__name__}")

    return FuncKey((func_signature(func), stmt(func.body)))


def func_structural_equal(a: PrimFunc, b: PrimFunc) -> bool:
    """Whether two functions are the same program (:func:`func_key`)."""
    return func_key(a) == func_key(b)


def func_structural_hash(func: PrimFunc) -> int:
    """A hash equal for functions :func:`func_structural_equal` calls equal."""
    return hash(func_key(func))


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


@dataclass
class PlanCacheStats:
    """Hit/miss counters of one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


class PlanCache:
    """An LRU cache of :class:`ExecutablePlan` keyed by :func:`func_key`.

    Thread-safe: one lock guards lookup, insertion and eviction, so parallel
    tuning threads racing on the same layer compile it once.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[FuncKey, ExecutablePlan]" = OrderedDict()
        self._epoch = E.expr_cache_epoch()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def _count(self, field: str) -> None:
        """One lookup outcome: ``stats.<field>`` and the
        ``tir.plan_cache.<field>`` counter together."""
        setattr(self.stats, field, getattr(self.stats, field) + 1)
        _metrics.count("tir.plan_cache." + field)

    def get_or_compile(self, func: PrimFunc) -> ExecutablePlan:
        """The cached plan for ``func``'s program, compiling on first sight.

        The returned plan may have been compiled from a *different* function
        of the same program: run it with ``plan.run(buffers, func=func)`` so
        parameter buffers rebind positionally
        (:class:`~repro.tir.executor.Executor` does this automatically).
        """
        key = func_key(func)
        with self._lock:
            epoch = E.expr_cache_epoch()
            if epoch != self._epoch:
                # The expression interning layer was cleared: every cached
                # plan bakes in analyses derived from it, so drop them all.
                self._entries.clear()
                self._epoch = epoch
                self.stats.invalidations += 1
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
                self._count("hits")
                return plan
            self._count("misses")
            plan = self._entries[key] = compile_plan(func)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            return plan


_GLOBAL_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    """The process-wide plan cache used by the default execution path."""
    return _GLOBAL_CACHE
