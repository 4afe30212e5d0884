"""Process-wide caching of executable plans.

Compiling a :class:`~repro.tir.lower.PrimFunc` into an
:class:`~repro.tir.engine.ExecutablePlan` derives the full affine analysis of
its loop nests — useful work, but work a model with fifty near-identical
convolution layers would otherwise repeat fifty times.  The
:class:`PlanCache` recognises *structurally identical* functions — different
``Var``/``Tensor`` objects, same program — and hands out one shared plan:

* the cache key is the **canonical structural hash** of the function
  (variables numbered in binding order, tensors by parameter position — see
  :func:`repro.dsl.expr.canonical_hash`) combined with the **dtype/shape
  signature** of every parameter, so functions differing only in buffer
  contents collide on purpose while different shapes or dtypes never do;
* every hash hit is confirmed by a full structural-equality walk
  (:func:`func_structural_equal`) before the plan is shared, so hash
  collisions cost a tree walk, never correctness;
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

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Tuple

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
    "func_signature",
    "func_structural_hash",
    "func_structural_equal",
]


# ---------------------------------------------------------------------------
# Canonical hashing and structural equality of whole functions
# ---------------------------------------------------------------------------


def func_signature(func: PrimFunc) -> Tuple:
    """The dtype/shape signature of a function's parameters.

    Part of the plan-cache key: two functions whose buffers differ in shape
    or element type must never share a plan, whatever their loop structure.
    """
    return tuple((t.shape, t.dtype.name) for t in func.params)


@remembered("plan_hash")
def func_structural_hash(func: PrimFunc) -> int:
    """A hash stable across structurally identical functions.

    Variables hash by binding order (loops, intrinsic axes, reduction axes),
    tensors by parameter position / allocation order; loop annotations and
    pragmas are ignored because they do not change what a plan executes.
    Remembered per ``func.body``: re-executing the same layer pays the tree
    walk once, a reassigned body is hashed afresh.
    """
    tensor_ids: Dict[object, int] = {t: i for i, t in enumerate(func.params)}
    var_ids: Dict[E.Var, int] = {}
    return hash(("func", func_signature(func), _stmt_hash(func.body, var_ids, tensor_ids)))


def _stmt_hash(stmt: Stmt, var_ids: dict, tensor_ids: dict) -> int:
    while isinstance(stmt, AttrStmt):
        stmt = stmt.body
    if isinstance(stmt, SeqStmt):
        return hash(
            ("seq",) + tuple(_stmt_hash(s, var_ids, tensor_ids) for s in stmt.stmts)
        )
    if isinstance(stmt, For):
        var_ids[stmt.var] = len(var_ids)
        return hash(("for", stmt.extent, _stmt_hash(stmt.body, var_ids, tensor_ids)))
    if isinstance(stmt, IfThenElse):
        return hash(
            (
                "if",
                stmt.likely,
                E.canonical_hash(stmt.condition, var_ids, tensor_ids),
                _stmt_hash(stmt.then_case, var_ids, tensor_ids),
                None
                if stmt.else_case is None
                else _stmt_hash(stmt.else_case, var_ids, tensor_ids),
            )
        )
    if isinstance(stmt, Store):
        t = stmt.tensor
        tkey = tensor_ids.get(t, ("ext", t.name, t.shape, t.dtype.name))
        return hash(
            ("store", tkey)
            + tuple(E.canonical_hash(i, var_ids, tensor_ids) for i in stmt.indices)
            + (E.canonical_hash(stmt.value, var_ids, tensor_ids),)
        )
    if isinstance(stmt, Allocate):
        tensor_ids[stmt.tensor] = len(tensor_ids)
        return hash(
            (
                "alloc",
                stmt.tensor.shape,
                stmt.tensor.dtype.name,
                _stmt_hash(stmt.body, var_ids, tensor_ids),
            )
        )
    if isinstance(stmt, IntrinsicCall):
        for ax in stmt.axes:
            var_ids.setdefault(ax.var, len(var_ids))
        parts: List = ["call", stmt.intrin.name, stmt.reads_output]
        parts.append(tuple(ax.extent for ax in stmt.axes))
        for b in list(stmt.inputs) + [stmt.output]:
            t = b.program_tensor
            tkey = tensor_ids.get(t, ("ext", t.name, t.shape, t.dtype.name))
            parts.append(
                (
                    b.intrin_tensor.name,
                    b.intrin_tensor.shape,
                    b.intrin_tensor.dtype.name,
                    tuple(
                        E.canonical_hash(i, var_ids, tensor_ids)
                        for i in b.intrin_indices
                    ),
                    tkey,
                    tuple(
                        E.canonical_hash(i, var_ids, tensor_ids)
                        for i in b.program_indices
                    ),
                )
            )
        return hash(tuple(parts))
    raise TypeError(f"unhandled statement type {type(stmt).__name__}")


def func_structural_equal(a: PrimFunc, b: PrimFunc) -> bool:
    """Whether two functions are the same program over positionally mapped
    parameters (same shapes, dtypes, loop structure, expressions and
    intrinsic bindings; annotations/pragmas ignored)."""
    if len(a.params) != len(b.params):
        return False
    tensor_map: Dict[object, object] = {}
    for ta, tb in zip(a.params, b.params):
        if ta.shape != tb.shape or ta.dtype != tb.dtype:
            return False
        tensor_map[ta] = tb
    return _stmt_equal(a.body, b.body, {}, tensor_map)


def _unwrap(stmt: Stmt) -> Stmt:
    while isinstance(stmt, AttrStmt):
        stmt = stmt.body
    return stmt


def _stmt_equal(sa: Stmt, sb: Stmt, var_map: dict, tensor_map: dict) -> bool:
    sa, sb = _unwrap(sa), _unwrap(sb)
    if type(sa) is not type(sb):
        return False
    if isinstance(sa, SeqStmt):
        if len(sa.stmts) != len(sb.stmts):
            return False
        return all(
            _stmt_equal(x, y, var_map, tensor_map)
            for x, y in zip(sa.stmts, sb.stmts)
        )
    if isinstance(sa, For):
        if sa.extent != sb.extent:
            return False
        var_map[sa.var] = sb.var
        return _stmt_equal(sa.body, sb.body, var_map, tensor_map)
    if isinstance(sa, IfThenElse):
        if sa.likely != sb.likely:
            return False
        if not _expr_equal(sa.condition, sb.condition, var_map, tensor_map):
            return False
        if not _stmt_equal(sa.then_case, sb.then_case, var_map, tensor_map):
            return False
        if (sa.else_case is None) != (sb.else_case is None):
            return False
        if sa.else_case is None:
            return True
        return _stmt_equal(sa.else_case, sb.else_case, var_map, tensor_map)
    if isinstance(sa, Store):
        if not _tensor_match(sa.tensor, sb.tensor, tensor_map):
            return False
        if len(sa.indices) != len(sb.indices):
            return False
        return all(
            _expr_equal(x, y, var_map, tensor_map)
            for x, y in zip(sa.indices, sb.indices)
        ) and _expr_equal(sa.value, sb.value, var_map, tensor_map)
    if isinstance(sa, Allocate):
        if (
            sa.tensor.shape != sb.tensor.shape
            or sa.tensor.dtype != sb.tensor.dtype
        ):
            return False
        tensor_map[sa.tensor] = sb.tensor
        return _stmt_equal(sa.body, sb.body, var_map, tensor_map)
    if isinstance(sa, IntrinsicCall):
        if sa.intrin is not sb.intrin or sa.reads_output != sb.reads_output:
            return False
        if len(sa.axes) != len(sb.axes) or len(sa.inputs) != len(sb.inputs):
            return False
        for ax_a, ax_b in zip(sa.axes, sb.axes):
            if ax_a.extent != ax_b.extent:
                return False
            var_map[ax_a.var] = ax_b.var
        for ba, bb in zip(list(sa.inputs) + [sa.output], list(sb.inputs) + [sb.output]):
            if ba.intrin_tensor is not bb.intrin_tensor:
                return False
            if not _tensor_match(ba.program_tensor, bb.program_tensor, tensor_map):
                return False
            if len(ba.intrin_indices) != len(bb.intrin_indices) or len(
                ba.program_indices
            ) != len(bb.program_indices):
                return False
            if not all(
                _expr_equal(x, y, var_map, tensor_map)
                for x, y in zip(ba.intrin_indices, bb.intrin_indices)
            ):
                return False
            if not all(
                _expr_equal(x, y, var_map, tensor_map)
                for x, y in zip(ba.program_indices, bb.program_indices)
            ):
                return False
        return True
    raise TypeError(f"unhandled statement type {type(sa).__name__}")


def _tensor_match(ta, tb, tensor_map: dict) -> bool:
    mapped = tensor_map.get(ta)
    if mapped is not None:
        return mapped is tb
    # Unregistered tensors (e.g. intrinsic register descriptions shared
    # process-wide) must be the identical object.
    return ta is tb


def _expr_equal(ea: E.Expr, eb: E.Expr, var_map: dict, tensor_map: dict) -> bool:
    if type(ea) is not type(eb):
        return False
    if isinstance(ea, E.Var):
        return var_map.get(ea, ea) is eb
    if isinstance(ea, E.Const):
        return ea.dtype == eb.dtype and ea.value == eb.value
    if isinstance(ea, E.Cast):
        return ea.dtype == eb.dtype and _expr_equal(ea.value, eb.value, var_map, tensor_map)
    if isinstance(ea, E.BinaryOp):
        return (
            ea.opcode == eb.opcode
            and _expr_equal(ea.a, eb.a, var_map, tensor_map)
            and _expr_equal(ea.b, eb.b, var_map, tensor_map)
        )
    if isinstance(ea, E.Compare):
        return (
            ea.op == eb.op
            and _expr_equal(ea.a, eb.a, var_map, tensor_map)
            and _expr_equal(ea.b, eb.b, var_map, tensor_map)
        )
    if isinstance(ea, E.Select):
        return all(
            _expr_equal(x, y, var_map, tensor_map)
            for x, y in zip(ea.children, eb.children)
        )
    if isinstance(ea, E.TensorLoad):
        if not _tensor_match(ea.tensor, eb.tensor, tensor_map):
            return False
        if len(ea.indices) != len(eb.indices):
            return False
        return all(
            _expr_equal(x, y, var_map, tensor_map)
            for x, y in zip(ea.indices, eb.indices)
        )
    raise TypeError(f"unhandled node type {type(ea).__name__}")


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
    """An LRU cache of :class:`ExecutablePlan` keyed by program structure.

    Thread-safe: one lock guards lookup, insertion and eviction, so parallel
    tuning threads racing on the same layer compile it once.  Hash hits are
    confirmed with :func:`func_structural_equal` before a plan is shared —
    same-hash-different-program functions coexist in one bucket.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Tuple, List[ExecutablePlan]]" = OrderedDict()
        self._epoch = E.expr_cache_epoch()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(bucket) for bucket in self._entries.values())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def get_or_compile(self, func: PrimFunc) -> ExecutablePlan:
        """The cached plan for ``func``'s program, compiling on first sight.

        The returned plan may have been compiled from a *different* (but
        structurally identical) function: run it with
        ``plan.run(buffers, func=func)`` so parameter buffers rebind
        positionally (:class:`~repro.tir.executor.Executor` does this
        automatically).
        """
        key = (func_structural_hash(func), func_signature(func))
        with self._lock:
            epoch = E.expr_cache_epoch()
            if epoch != self._epoch:
                # The expression interning layer was cleared: every cached
                # plan bakes in analyses derived from it, so drop them all.
                self._entries.clear()
                self._epoch = epoch
                self.stats.invalidations += 1
            bucket = self._entries.get(key)
            if bucket is not None:
                for plan in bucket:
                    if plan.func is func or func_structural_equal(plan.func, func):
                        self._entries.move_to_end(key)
                        self.stats.hits += 1
                        _metrics.count("tir.plan_cache.hits")
                        return plan
            self.stats.misses += 1
            _metrics.count("tir.plan_cache.misses")
            plan = compile_plan(func)
            if bucket is None:
                self._entries[key] = [plan]
            else:
                bucket.append(plan)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            return plan


_GLOBAL_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    """The process-wide plan cache used by the default execution path."""
    return _GLOBAL_CACHE
