"""Vectorized execution engine for tensor IR: compile once, run many times.

The scalar :class:`~repro.tir.interpreter.Interpreter` executes loop nests one
element at a time in Python — exact, but the single hottest path in the
repository once every schedule transformation and tuning trial is validated
through it.  This module *compiles* a :class:`PrimFunc` into an
:class:`ExecutablePlan` of batched numpy operations and then executes the
plan with **zero re-analysis**:

* **compile phase** (:func:`compile_plan`) — one pass over the function's
  nests (the shared :func:`~repro.tir.visitor.iter_nests` reading and the
  bounds proofs remembered on the function; nothing is matched or proved here)
  derives everything that does not depend on buffer contents: iteration
  grids, strided (affine) gather/scatter index arrays via the memoized
  :func:`repro.dsl.expr.extract_linear` decomposition, residue masks from
  ``likely`` guards, reduction fold orders, and a flattened intrinsic-round
  schedule.  Expressions that do read buffers are compiled into closures
  over those precomputed index grids;
* **run phase** (:meth:`ExecutablePlan.run`) — pure numpy execution over the
  caller's buffers: fancy-indexed gathers, exact-dtype reduction folds
  (order-free ufunc reductions where bit equality is provable, sequential
  vectorized left-folds where evaluation order is observable, e.g. float
  sums), masked scatters, and bulk intrinsic dispatch.

``IntrinsicCall`` regions dispatch along one of two paths, chosen by what
the compiler observes.  Outer loops the destination tile does *not* depend
on (reduction revisits) are, by default, **sequential rounds**: one gather,
one ``execute_batch`` and one scatter per round, in loop order.  When the
instruction is an integer accumulator-style dot product (``d = c + sum(...)``
with wraparound addition) that ships a ``grid_impl``, and every input
address is affine in those sequential loop variables, the plan takes the
**grid form** instead: every operand is gathered once over the whole
iteration space, the model folds the sequential axes into its own exact
accumulation, and the nest ends in a single accumulate-and-scatter.  This
turns the 36–648 Python round-trips of a convolution's reduction loops into
one model call.

The expression language compiled here is exactly
:data:`repro.analysis.structure.TIR_EXPR_KINDS` — what ``lower`` and the
tensorize replacement emit and ``repro.tir.verify`` enforces; any other
node is :class:`Unvectorizable`.

Plans are cached process-wide (:mod:`repro.tir.plan`) keyed by the canonical
structural hash of the function plus its dtype/shape signature, so the many
structurally identical layers of a model compile once and run warm.

Any statement the compiler cannot prove vectorizable becomes a *fallback
step* that executes through the scalar interpreter over the same buffers, so
the engine is always exact: vectorization is an optimization, never a
semantics change.  :class:`EngineStats` records how much of a run was
vectorized and why fallbacks happened.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..analysis.interval import expr_interval, loop_env
from ..dsl import expr as E
from ..dsl.tensor import Tensor
from .interpreter import Interpreter
from .lower import PrimFunc
from .stmt import Allocate, IfThenElse, IntrinsicCall, SeqStmt, Stmt, Store
from .visitor import Nest, accumulation_form, iter_nests, same_index

__all__ = [
    "EngineStats",
    "PlanStats",
    "ExecutablePlan",
    "Unvectorizable",
    "compile_plan",
]

# Element budget for the materialised gathers of the grid-form dispatch (its
# broadcast operand views cost nothing; only the raw gathers allocate).
_GRID_GATHER_BUDGET = 1 << 27


class Unvectorizable(Exception):
    """A statement could not be proven safe to vectorize.

    Raised at compile time for structural reasons (and surfaced only in
    ``strict`` mode) and — rarely — at run time (a grid-form hardware model
    returning the wrong number of elements); the engine's normal response is
    to execute the offending nest through the scalar interpreter.
    """


class _Dynamic(Exception):
    """Static evaluation hit a buffer read (internal control flow)."""


@dataclass
class EngineStats:
    """What the engine did during one or more ``run`` calls."""

    vector_nests: int = 0
    fallback_nests: int = 0
    vector_stores: int = 0
    intrinsic_rounds: int = 0
    intrinsic_points: int = 0
    intrinsic_round_batches: int = 0
    native_runs: int = 0
    native_promotions: int = 0
    native_demotions: int = 0
    sandbox_qualifications: int = 0
    sandbox_rejections: int = 0
    fallback_reasons: List[str] = field(default_factory=list)


@dataclass
class PlanStats:
    """Compile-time facts about one :class:`ExecutablePlan`.

    ``proved_nests`` counts nests whose every access the static bounds
    analysis (:mod:`repro.analysis`) proved in-range; ``elided_checks``
    counts the runtime guards (masked-gather/scatter clamps) the compiler
    skipped because a proof made them identity operations.
    """

    vector_nests: int = 0
    fallback_nests: int = 0
    proved_nests: int = 0
    elided_checks: int = 0
    fallback_reasons: List[str] = field(default_factory=list)


def _minimum(a, b):
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return min(a, b)
    return np.minimum(a, b)


def _maximum(a, b):
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return max(a, b)
    return np.maximum(a, b)


# The arithmetic of the static evaluator (``_seval``) and of the closures
# ``_compile_value`` builds: one table each, keyed by exact node class / op.
_BINARY_OPS = {
    E.Add: operator.add,
    E.Sub: operator.sub,
    E.Mul: operator.mul,
    E.FloorDiv: operator.floordiv,
    E.Mod: operator.mod,
    E.Min: _minimum,
    E.Max: _maximum,
}

_COMPARE_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _axis_array(pos: int, extent: int, rank: int) -> np.ndarray:
    shape = [1] * rank
    shape[pos] = extent
    return np.arange(extent, dtype=np.int64).reshape(shape)


def _affine_in(expr: E.Expr, variables: set) -> bool:
    """Whether ``expr`` is affine in ``variables`` (other vars are symbolic
    parameters): no member may sit under a div/mod/min/max or multiply
    another variable-carrying term."""
    if not any(v in variables for v in E.free_vars(expr)):
        return True  # constant with respect to the slicing variables
    if isinstance(expr, E.Var):
        return True
    if isinstance(expr, E.Cast):
        return _affine_in(expr.value, variables)
    if isinstance(expr, (E.Add, E.Sub)):
        return _affine_in(expr.a, variables) and _affine_in(expr.b, variables)
    if isinstance(expr, E.Mul):
        for scale, term in ((expr.a, expr.b), (expr.b, expr.a)):
            if not any(v in variables for v in E.free_vars(scale)):
                return _affine_in(term, variables)
        return False
    return False


def _get_buf(bufs: Dict[Tensor, np.ndarray], tensor: Tensor) -> np.ndarray:
    try:
        return bufs[tensor]
    except KeyError as exc:
        raise KeyError(f"no buffer bound for tensor {tensor.name!r}") from exc


class _CompileCtx:
    """Grid-analysis context: loop variables bound to index arrays.

    ``rank`` is the number of grid axes; every bound array has exactly
    ``rank`` dimensions (size-1 where it does not vary), so results broadcast
    positionally.
    ``order`` is the binding order of the variables — the memo key for the
    affine decomposition.  ``clip`` clamps gather indices into range —
    enabled when a mask is active, because masked-out grid points may carry
    out-of-range addresses the scalar loop would never have touched.
    ``env`` maps every bound variable to its static interval, letting the
    compiler elide a clamp whose index is proven in-range at *every* grid
    point (clipping an in-range index is the identity).
    """

    __slots__ = ("rank", "vars", "order", "clip", "env")

    def __init__(self, rank, vars, order, clip, env):
        self.rank = rank
        self.vars = vars
        self.order = order
        self.clip = clip
        self.env = env


# ---------------------------------------------------------------------------
# Plan steps — the run-phase objects.  Every step is immutable after compile
# and threads all mutable state through the caller's buffer dict, so one plan
# may be shared across threads and cached process-wide.
# ---------------------------------------------------------------------------


class _AllocStep:
    __slots__ = ("tensor",)

    def __init__(self, tensor: Tensor) -> None:
        self.tensor = tensor

    def run(self, bufs, stats) -> None:
        bufs[self.tensor] = np.zeros(self.tensor.shape, dtype=self.tensor.dtype.np_dtype)


class _DeadStep:
    """A statically dead nest (guards fold to False): nothing to execute."""

    __slots__ = ("stmt",)

    def __init__(self, stmt: Stmt) -> None:
        self.stmt = stmt

    def run(self, bufs, stats) -> None:
        pass


class _FallbackStep:
    __slots__ = ("stmt", "reason")

    def __init__(self, stmt: Stmt, reason: str) -> None:
        self.stmt = stmt
        self.reason = reason


class _PlainStoreStep:
    __slots__ = ("stmt", "tensor", "idx", "value_fn", "mask", "out_np")

    def __init__(self, stmt, tensor, idx, value_fn, mask, out_np) -> None:
        self.stmt = stmt
        self.tensor = tensor
        self.idx = idx
        self.value_fn = value_fn
        self.mask = mask
        self.out_np = out_np

    def run(self, bufs, stats) -> None:
        buf = _get_buf(bufs, self.tensor)
        val = self.value_fn(bufs)
        shapes = [np.shape(a) for a in self.idx]
        shapes.append(np.shape(val))
        if self.mask is not None:
            shapes.append(np.shape(self.mask))
        bshape = np.broadcast_shapes(*shapes)
        val = np.broadcast_to(np.asarray(val).astype(self.out_np), bshape)
        idx_b = tuple(np.broadcast_to(np.asarray(a), bshape) for a in self.idx)
        if self.mask is None:
            # Duplicate target indices (loop axes the store does not depend
            # on) resolve in C order = loop order: the last write wins,
            # matching the scalar loop.
            buf[idx_b] = val
        else:
            sel = np.broadcast_to(np.asarray(self.mask), bshape)
            buf[tuple(a[sel] for a in idx_b)] = val[sel]
        if stats:
            stats.vector_stores += 1


class _AccumStoreStep:
    """``t[i] = combine(t[i], rest)`` folded over the reduction axes."""

    __slots__ = (
        "stmt",
        "tensor",
        "value_fn",
        "combiner",
        "idx_dp",
        "grid",
        "perm",
        "dp_shape",
        "mask_m",
        "sel",
        "out_np",
        "out_bits",
        "is_int_out",
    )

    def __init__(
        self, stmt, tensor, value_fn, combiner, idx_dp, grid, perm, dp_shape,
        mask_m, sel, out_np, out_bits, is_int_out,
    ) -> None:
        self.stmt = stmt
        self.tensor = tensor
        self.value_fn = value_fn
        self.combiner = combiner
        self.idx_dp = idx_dp
        self.grid = grid
        self.perm = perm
        self.dp_shape = dp_shape
        self.mask_m = mask_m
        self.sel = sel
        self.out_np = out_np
        self.out_bits = out_bits
        self.is_int_out = is_int_out

    def _to_folded(self, a):
        """Reshape a grid-broadcastable array to (dp..., K) in loop order."""
        a = np.broadcast_to(np.asarray(a), self.grid)
        a = np.transpose(a, self.perm)
        return a.reshape(self.dp_shape + (-1,))

    def run(self, bufs, stats) -> None:
        buf = _get_buf(bufs, self.tensor)
        vals_m = self._to_folded(self.value_fn(bufs))
        mask_m = self.mask_m
        acc0 = buf[self.idx_dp]  # data-parallel gather of the current accumulator

        combiner = self.combiner
        out_np = self.out_np
        vals_dt = vals_m.dtype
        fast = False
        red_dt = vals_dt
        if combiner == "sum":
            # Integer sums are exact under any order: truncation to the store
            # dtype is a ring homomorphism, so reducing in (at least) the
            # wider of the two integer widths matches the per-step
            # read-modify-write of the scalar loop bit for bit.
            if self.is_int_out and vals_dt.kind in "iu":
                fast = True
                red_dt = out_np if self.out_bits >= vals_dt.itemsize * 8 else vals_dt
        elif vals_dt == out_np and vals_dt.kind in "iuf":
            # max/min never round and per-step casts are no-ops when the
            # value dtype equals the store dtype, so the order-free ufunc
            # reduction is exact.
            fast = True

        if fast:
            vm = vals_m
            if mask_m is not None:
                # A guarded-out iteration leaves the accumulator untouched,
                # which is exactly folding the combiner identity.
                if combiner == "sum":
                    identity = vals_dt.type(0)
                elif combiner == "max":
                    identity = (
                        np.iinfo(vals_dt).min
                        if vals_dt.kind in "iu"
                        else vals_dt.type(-np.inf)
                    )
                else:
                    identity = (
                        np.iinfo(vals_dt).max
                        if vals_dt.kind in "iu"
                        else vals_dt.type(np.inf)
                    )
                vm = np.where(mask_m, vm, identity)
            if combiner == "sum":
                total = (acc0 + np.add.reduce(vm, axis=-1, dtype=red_dt)).astype(out_np)
            elif combiner == "max":
                total = np.maximum(acc0, np.maximum.reduce(vm, axis=-1)).astype(out_np)
            else:
                total = np.minimum(acc0, np.minimum.reduce(vm, axis=-1)).astype(out_np)
        else:
            # Sequential left-fold over the reduction domain, vectorized over
            # the data-parallel grid: reproduces the scalar loop's evaluation
            # order (and its per-step store cast) exactly — required for
            # float sums, where summation order is observable.
            op = {"sum": np.add, "max": np.maximum, "min": np.minimum}[combiner]
            acc = acc0
            for k in range(vals_m.shape[-1]):
                upd = np.asarray(op(acc, vals_m[..., k])).astype(out_np)
                acc = np.where(mask_m[..., k], upd, acc) if mask_m is not None else upd
            total = np.asarray(acc)

        if self.sel is None:
            buf[self.idx_dp] = np.broadcast_to(
                np.asarray(total).astype(out_np), self.dp_shape
            )
        else:
            # A data-parallel point is stored iff at least one of its
            # reduction iterations passed the guard.
            buf[tuple(a[self.sel] for a in self.idx_dp)] = np.broadcast_to(
                np.asarray(total).astype(out_np), self.dp_shape
            )[self.sel]
        if stats:
            stats.vector_stores += 1


class _IntrinsicRound:
    """One sequential round of an intrinsic nest: pre-sliced index views."""

    __slots__ = ("input_idx", "sel", "sel_rows")

    def __init__(self, input_idx, sel, sel_rows) -> None:
        self.input_idx = input_idx
        self.sel = sel
        self.sel_rows = sel_rows


class _IntrinsicStep:
    """An IntrinsicCall nest executed round by round (the general path)."""

    __slots__ = (
        "stmt",
        "call",
        "rounds",
        "inputs",
        "out_tensor",
        "out_np",
        "bn_total",
        "batch_part",
        "eff",
        "bview",
        "identity_fill",
        "out_i",
        "pidx_o",
        "scat_ext",
        "out_slicer",
    )

    def __init__(self, **kw) -> None:
        for k, v in kw.items():
            setattr(self, k, v)

    def run(self, bufs, stats) -> None:
        call = self.call
        intrin = call.intrin
        out_buf = _get_buf(bufs, self.out_tensor)
        bn_total = self.bn_total
        batch_part = self.batch_part
        for rnd in self.rounds:
            operands: Dict[str, np.ndarray] = {}
            for bi, b in enumerate(self.inputs):
                src = _get_buf(bufs, b.program_tensor)
                vals = np.broadcast_to(
                    src[rnd.input_idx[bi]], batch_part + self.eff[bi]
                ).reshape((bn_total,) + self.eff[bi])
                reg_np = b.intrin_tensor.dtype.np_dtype
                if self.identity_fill[bi]:
                    reg = vals.reshape((bn_total,) + b.intrin_tensor.shape)
                    if reg.dtype != reg_np:
                        reg = reg.astype(reg_np)
                else:
                    reg = np.zeros((bn_total,) + b.intrin_tensor.shape, dtype=reg_np)
                    reg[(slice(None),) + self.bview[bi]] = vals
                operands[b.intrin_tensor.name] = reg

            result = intrin.execute_batch(operands, bn_total)
            if self.identity_fill[self.out_i]:
                out_vals = result.reshape((bn_total,) + self.eff[self.out_i]).astype(
                    self.out_np
                )
            else:
                out_vals = result[(slice(None),) + self.bview[self.out_i]].astype(
                    self.out_np
                )
            val = out_vals.reshape(batch_part + self.eff[self.out_i])

            if rnd.sel is None:
                out_buf[tuple(self.pidx_o)] = val[self.out_slicer]
            else:
                out_buf[tuple(rnd.sel_rows)] = np.broadcast_to(
                    val, batch_part + self.scat_ext
                ).reshape((bn_total,) + self.scat_ext)[rnd.sel]
            if stats:
                stats.intrinsic_rounds += 1
                stats.intrinsic_points += bn_total


class _GridIntrinsicStep:
    """All rounds of an accumulator intrinsic in one grid-form dispatch.

    Non-accumulator operands are handed to the
    instruction's :attr:`~repro.isa.intrinsic.TensorIntrinsic.grid_impl` as
    zero-stride broadcast *views* over the full ``grid + intrinsic-axes``
    iteration space — nothing is materialised — and the model folds the
    sequential (reduction-revisit) axes into its own exact int32
    accumulation.  One gather per operand, one model call, one
    accumulate-and-scatter for the whole nest.
    """

    __slots__ = (
        "stmt",
        "call",
        "inputs",
        "acc_bi",
        "out_tensor",
        "out_np",
        "rank",
        "bn_total",
        "n_rounds",
        "grid",
        "iext",
        "seq_axes",
        "batch_part",
        "gather_idx",
        "eff",
        "bview",
        "identity_fill",
        "out_i",
        "out_reg_shape",
        "acc_idx",
        "eff_acc",
        "pidx_o",
        "scat_ext",
        "out_slicer",
        "sel",
        "sel_rows",
    )

    def __init__(self, **kw) -> None:
        for k, v in kw.items():
            setattr(self, k, v)

    def run(self, bufs, stats) -> None:
        intrin = self.call.intrin
        out_buf = _get_buf(bufs, self.out_tensor)
        full = self.grid + self.iext
        operands: Dict[str, np.ndarray] = {}
        for bi, b in enumerate(self.inputs):
            if bi == self.acc_bi:
                continue
            src = _get_buf(bufs, b.program_tensor)
            operands[b.intrin_tensor.name] = np.broadcast_to(
                src[self.gather_idx[bi]], full
            )
        result = np.asarray(intrin.grid_impl(operands, self.seq_axes))
        expected = self.bn_total * int(np.prod(self.out_reg_shape))
        if result.size != expected:
            raise Unvectorizable(
                f"grid-form model returned {result.size} elements, expected {expected}"
            )
        result = result.reshape(self.batch_part + self.out_reg_shape)
        out_vals = result[
            (slice(None),) * self.rank + self.bview[self.out_i]
        ].reshape(self.batch_part + self.eff[self.out_i])
        acc_vals = np.broadcast_to(
            out_buf[tuple(self.acc_idx)], self.batch_part + self.eff_acc
        )
        val = (acc_vals + out_vals).astype(self.out_np)
        if self.sel is None:
            out_buf[tuple(self.pidx_o)] = val[self.out_slicer]
        else:
            out_buf[tuple(self.sel_rows)] = np.broadcast_to(
                val, self.batch_part + self.scat_ext
            ).reshape((self.bn_total,) + self.scat_ext)[self.sel]
        if stats:
            stats.intrinsic_rounds += self.n_rounds
            stats.intrinsic_points += self.n_rounds * self.bn_total
            stats.intrinsic_round_batches += 1


_VECTOR_STEPS = (
    _DeadStep,
    _PlainStoreStep,
    _AccumStoreStep,
    _IntrinsicStep,
    _GridIntrinsicStep,
)


# ---------------------------------------------------------------------------
# The executable plan
# ---------------------------------------------------------------------------


class ExecutablePlan:
    """A compiled :class:`PrimFunc`: precomputed analysis + a step list.

    ``run(buffers)`` executes with zero re-analysis.  Plans are immutable
    after compilation and thread all mutable state through the caller's
    buffers, so one plan may be shared across threads and cached process-wide
    (:mod:`repro.tir.plan`).  Structurally identical functions may share one
    plan: pass the caller's ``func`` to :meth:`run` and its parameter buffers
    are rebound positionally.
    """

    def __init__(self, func: PrimFunc, steps, stats: PlanStats, strict: bool) -> None:
        self.func = func
        self.steps = steps
        self.stats = stats
        self.strict = strict
        self._interp = Interpreter(func)

    @property
    def fallback_nests(self) -> int:
        """Compile-time fallback count (0 = fully vectorized)."""
        return self.stats.fallback_nests

    def run(
        self,
        buffers: Dict[Tensor, np.ndarray],
        stats: Optional[EngineStats] = None,
        func: Optional[PrimFunc] = None,
    ) -> np.ndarray:
        """Execute the plan; same contract as ``Interpreter.run``.

        ``func`` identifies the caller's function when the plan was served
        from the cache for a structurally identical one: buffers keyed by the
        caller's parameter tensors are rebound to the plan's by position.
        """
        if func is not None and func is not self.func:
            remapped: Dict[Tensor, np.ndarray] = {}
            for mine, theirs in zip(self.func.params, func.params):
                if theirs in buffers:
                    remapped[mine] = buffers[theirs]
            buffers = remapped
        bufs = self._interp.bind_params(buffers)
        for step in self.steps:
            if isinstance(step, _FallbackStep):
                self._interp.run_stmt(step.stmt, bufs)
                if stats:
                    stats.fallback_nests += 1
                    if len(stats.fallback_reasons) < 32:
                        stats.fallback_reasons.append(step.reason)
            elif isinstance(step, _AllocStep):
                step.run(bufs, stats)
            else:
                try:
                    step.run(bufs, stats)
                except Unvectorizable as exc:
                    if self.strict:
                        raise
                    self._interp.run_stmt(step.stmt, bufs)
                    if stats:
                        stats.fallback_nests += 1
                        if len(stats.fallback_reasons) < 32:
                            stats.fallback_reasons.append(str(exc))
                    continue
                if stats and isinstance(step, _VECTOR_STEPS):
                    stats.vector_nests += 1
        return bufs[self.func.output]


# ---------------------------------------------------------------------------
# The plan compiler — the analysis phase
# ---------------------------------------------------------------------------


class _PlanCompiler:
    def __init__(self, func: PrimFunc, strict: bool = False) -> None:
        self.func = func
        self.strict = strict
        self.steps: list = []
        self.stats = PlanStats()

    def compile(self) -> ExecutablePlan:
        # One set of proofs per function body, shared with ``analyze``; a
        # function nobody analysed runs the bounds pass here, nothing else.
        from ..analysis.bounds import analyze_bounds  # mid-import if it pulled tir in

        self.proofs = analyze_bounds(self.func)[0]
        entered: Tuple[Allocate, ...] = ()
        for nest in iter_nests(self.func):
            self.steps += [_AllocStep(s.tensor) for s in nest.scopes if s not in entered]
            entered = nest.scopes
            self._nest(nest)
        return ExecutablePlan(self.func, self.steps, self.stats, self.strict)

    # -- nest dispatch ------------------------------------------------------
    def _nest(self, nest: Nest) -> None:
        body = nest.body
        try:
            if isinstance(body, Store):
                step = self._compile_store(nest, body)
            elif isinstance(body, IntrinsicCall):
                step = self._compile_intrinsic(nest, body)
            elif isinstance(body, (SeqStmt, IfThenElse, Allocate)):
                raise Unvectorizable(
                    f"loop body is a {type(body).__name__}, not a store or intrinsic call"
                )
            else:
                raise TypeError(f"cannot compile statement {type(body).__name__}")
        except Unvectorizable as exc:
            if self.strict:
                raise
            self.stats.fallback_nests += 1
            if len(self.stats.fallback_reasons) < 32:
                self.stats.fallback_reasons.append(str(exc))
            self.steps.append(_FallbackStep(nest.stmt, str(exc)))
            return
        self.stats.vector_nests += 1
        self.steps.append(step)

    def _make_ctx(self, axes, clip) -> _CompileCtx:
        rank = len(axes)
        vars = {
            var: _axis_array(i, extent, rank) for i, (var, extent) in enumerate(axes)
        }
        return _CompileCtx(rank, vars, tuple(var for var, _ in axes), clip, loop_env(axes))

    def _count_proof(self, nest: Nest) -> None:
        """``PlanStats.proved_nests``: the bounds pass proved this nest safe."""
        if self.proofs[nest.index].bounds_proved:
            self.stats.proved_nests += 1

    def _clip_elidable(self, i_expr: E.Expr, extent: int, ctx: _CompileCtx) -> bool:
        """Whether the protective clamp on this index dimension is provably
        the identity: the static interval of the index stays inside
        ``[0, extent)`` at every grid point, masked ones included."""
        iv = expr_interval(i_expr, ctx.env)
        if iv is not None and iv.within(0, extent - 1):
            self.stats.elided_checks += 1
            return True
        return False

    # -- static (buffer-independent) evaluation -----------------------------
    def _static_index(self, expr: E.Expr, ctx: _CompileCtx):
        """Evaluate an index expression over the grid at compile time.

        Affine expressions go through the memoized
        :func:`~repro.dsl.expr.extract_linear` decomposition — the grid is
        assembled as ``constant + sum(coeff * axis_array)`` from the cached
        coefficients — and everything else falls back to the generic static
        evaluator.  Raises :class:`_Dynamic` when the expression reads
        buffer contents.
        """
        if isinstance(expr, (E.Add, E.Sub, E.Mul, E.Cast, E.Var, E.Const)):
            lin = E.extract_linear(expr, ctx.order)
            if lin is not None:
                coeffs, const = lin
                total = const
                for v, c in coeffs.items():
                    a = ctx.vars[v]
                    total = total + (a if c == 1 else a * c)
                return total
        return self._seval(expr, ctx)

    def _seval(self, expr: E.Expr, ctx: _CompileCtx):
        """Static grid evaluation, with buffer reads surfacing as
        :class:`_Dynamic`."""
        if isinstance(expr, E.Const):
            return expr.value
        if isinstance(expr, E.Var):
            try:
                return ctx.vars[expr]
            except KeyError:
                raise Unvectorizable(f"unbound variable {expr.name!r}")
        if isinstance(expr, E.Cast):
            v = self._seval(expr.value, ctx)
            np_dtype = expr.dtype.np_dtype
            if isinstance(v, np.ndarray):
                return v.astype(np_dtype)
            return np_dtype.type(v)
        if isinstance(expr, E.TensorLoad):
            raise _Dynamic(expr.tensor.name)
        op = _BINARY_OPS.get(expr.__class__)
        if op is not None:
            return op(self._static_index(expr.a, ctx), self._static_index(expr.b, ctx))
        if isinstance(expr, E.Compare):
            return _COMPARE_OPS[expr.op](
                self._static_index(expr.a, ctx), self._static_index(expr.b, ctx)
            )
        if isinstance(expr, E.Select):
            cond = self._seval(expr.cond, ctx)
            if np.ndim(cond) == 0:
                branch = expr.true_value if bool(cond) else expr.false_value
                return self._seval(branch, ctx)
            return np.where(
                cond, self._seval(expr.true_value, ctx), self._seval(expr.false_value, ctx)
            )
        raise Unvectorizable(f"cannot vectorize expression {type(expr).__name__}")

    def _static_mask(self, guards, ctx):
        """Combine guard conditions into one boolean mask (or None/False)."""
        mask = None
        for g in guards:
            try:
                m = self._seval(g, ctx)
            except _Dynamic:
                raise Unvectorizable("guard condition reads tensor contents")
            mask = m if mask is None else np.logical_and(mask, m)
        if mask is not None and np.ndim(mask) == 0:
            if not bool(mask):
                return False  # statically dead nest
            mask = None
        return mask

    # -- value compilation (buffer-dependent expressions → closures) --------
    def _compile_value(self, expr: E.Expr, ctx: _CompileCtx) -> Callable:
        """Compile ``expr`` into ``fn(bufs) -> value``.

        Buffer-independent subtrees are evaluated once, here, at compile
        time; loads gather through precomputed index grids; everything else
        becomes a closure combining its children's closures.
        """
        if not any(isinstance(n, E.TensorLoad) for n in E.post_order(expr)):
            v = self._seval(expr, ctx)
            return lambda bufs: v
        if isinstance(expr, E.TensorLoad):
            return self._compile_load(expr, ctx)
        if isinstance(expr, E.Cast):
            inner = self._compile_value(expr.value, ctx)
            np_dtype = expr.dtype.np_dtype

            def fn_cast(bufs):
                v = inner(bufs)
                if isinstance(v, np.ndarray):
                    return v.astype(np_dtype)
                return np_dtype.type(v)

            return fn_cast
        op = _BINARY_OPS.get(expr.__class__)
        if op is None and isinstance(expr, E.Compare):
            op = _COMPARE_OPS[expr.op]
        if op is not None:
            a_fn = self._compile_value(expr.a, ctx)
            b_fn = self._compile_value(expr.b, ctx)
            return lambda bufs: op(a_fn(bufs), b_fn(bufs))
        if isinstance(expr, E.Select):
            cond_fn = self._compile_value(expr.cond, ctx)
            t_fn = self._compile_value(expr.true_value, ctx)
            f_fn = self._compile_value(expr.false_value, ctx)

            def fn_select(bufs):
                cond = cond_fn(bufs)
                if np.ndim(cond) == 0:
                    return t_fn(bufs) if bool(cond) else f_fn(bufs)
                return np.where(cond, t_fn(bufs), f_fn(bufs))

            return fn_select
        raise Unvectorizable(f"cannot vectorize expression {type(expr).__name__}")

    def _compile_load(self, expr: E.TensorLoad, ctx: _CompileCtx) -> Callable:
        tensor = expr.tensor
        try:
            idx = [self._static_index(i, ctx) for i in expr.indices]
        except _Dynamic:
            idx = None
        if idx is not None:
            if all(np.ndim(i) == 0 for i in idx):
                point = tuple(int(i) for i in idx)
                return lambda bufs: _get_buf(bufs, tensor)[point]
            arrays = []
            for i_expr, i, d in zip(expr.indices, idx, tensor.shape):
                a = np.asarray(i)
                if ctx.clip and not self._clip_elidable(i_expr, d, ctx):
                    a = np.clip(a, 0, d - 1)
                arrays.append(a)
            gather = tuple(arrays)
            return lambda bufs: _get_buf(bufs, tensor)[gather]
        # Indirect addressing: index expressions themselves read buffers.
        idx_fns = [self._compile_value(i, ctx) for i in expr.indices]
        clip = ctx.clip
        elided = [
            clip and self._clip_elidable(i_expr, d, ctx)
            for i_expr, d in zip(expr.indices, tensor.shape)
        ]

        def fn_load(bufs):
            buf = _get_buf(bufs, tensor)
            idx = [f(bufs) for f in idx_fns]
            if all(np.ndim(i) == 0 for i in idx):
                return buf[tuple(int(i) for i in idx)]
            arrays = []
            for i, d, skip in zip(idx, buf.shape, elided):
                a = np.asarray(i)
                if clip and not skip:
                    a = np.clip(a, 0, d - 1)
                arrays.append(a)
            return buf[tuple(arrays)]

        return fn_load

    # -- Store nests --------------------------------------------------------
    def _compile_store(self, nest: Nest, store: Store):
        axes, guards = nest.axes, nest.guards
        grid = tuple(extent for _, extent in axes)
        ctx = self._make_ctx(axes, clip=bool(guards))
        out_np = store.tensor.dtype.np_dtype

        mask = self._static_mask(guards, ctx)
        if mask is False:
            return _DeadStep(nest.stmt)
        self._count_proof(nest)

        # Any self-reference beyond the accumulator operand is a loop-carried
        # dependence the engine cannot reorder.
        acc = nest.accumulation
        if nest.carried:
            raise Unvectorizable(
                "store value reads its target tensor (not an accumulation)"
                if acc is None
                else "store reads its target tensor beyond the accumulator"
            )
        try:
            idx = [self._static_index(i, ctx) for i in store.indices]
        except _Dynamic:
            raise Unvectorizable("store indices read tensor contents")
        if mask is not None:
            clipped = []
            for i_expr, i, d in zip(store.indices, idx, store.tensor.shape):
                if self._clip_elidable(i_expr, d, ctx):
                    clipped.append(i)
                elif np.ndim(i):
                    clipped.append(np.clip(np.asarray(i), 0, d - 1))
                else:
                    clipped.append(min(max(int(i), 0), d - 1))
            idx = clipped

        if acc is None:
            value_fn = self._compile_value(store.value, ctx)
            return _PlainStoreStep(nest.stmt, store.tensor, idx, value_fn, mask, out_np)

        perm = list(nest.parallel + nest.reduction)
        dp_shape = tuple(grid[k] for k in nest.parallel)

        def to_dp(a):
            """Reduce a grid-broadcastable array to data-parallel shape."""
            a = np.broadcast_to(np.asarray(a), grid)
            a = np.transpose(a, perm)
            return a[(Ellipsis,) + (0,) * len(nest.reduction)]

        idx_dp = tuple(to_dp(i) for i in idx)
        if mask is not None:
            mask_b = np.broadcast_to(np.asarray(mask), grid)
            mask_m = np.transpose(mask_b, perm).reshape(dp_shape + (-1,))
            sel = mask_m.any(axis=-1)
        else:
            mask_m = None
            sel = None
        value_fn = self._compile_value(acc.rest, ctx)
        return _AccumStoreStep(
            nest.stmt,
            store.tensor,
            value_fn,
            acc.combiner,
            idx_dp,
            grid,
            perm,
            dp_shape,
            mask_m,
            sel,
            out_np,
            store.tensor.dtype.bits,
            store.tensor.dtype.is_integer,
        )

    # -- IntrinsicCall nests -------------------------------------------------
    def _compile_intrinsic(self, nest: Nest, call: IntrinsicCall):
        axes, guards = nest.axes, nest.guards
        rank = len(axes)
        grid = tuple(extent for _, extent in axes)
        outer_vars = {var for var, _ in axes}
        ctx = self._make_ctx(axes, clip=False)

        for g in guards:
            if not set(E.free_vars(g)) <= outer_vars:
                raise Unvectorizable("intrinsic guard uses non-loop variables")
        mask = self._static_mask(guards, ctx)
        if mask is False:
            return _DeadStep(nest.stmt)
        self._count_proof(nest)

        iaxes = call.axes
        m = len(iaxes)
        iext = tuple(ax.extent for ax in iaxes)
        full_rank = rank + m
        fvars = {v: a.reshape(a.shape + (1,) * m) for v, a in ctx.vars.items()}
        for j, ax in enumerate(iaxes):
            fvars[ax.var] = _axis_array(rank + j, ax.extent, full_rank)
        ienv = loop_env((ax.var, ax.extent) for ax in iaxes)
        fctx = _CompileCtx(
            full_rank,
            fvars,
            ctx.order + tuple(ax.var for ax in iaxes),
            clip=False,
            env={**ctx.env, **ienv},
        )
        ictx = _CompileCtx(
            m,
            {ax.var: _axis_array(j, ax.extent, m) for j, ax in enumerate(iaxes)},
            tuple(ax.var for ax in iaxes),
            clip=False,
            env=ienv,
        )

        out_b = call.output
        bindings = list(call.inputs) + [out_b]
        prog_idx: Dict[int, list] = {}
        reg_idx: Dict[int, list] = {}
        try:
            for bi, b in enumerate(bindings):
                prog_idx[bi] = [self._static_index(i, fctx) for i in b.program_indices]
                reg_idx[bi] = [self._static_index(i, ictx) for i in b.intrin_indices]
        except _Dynamic:
            raise Unvectorizable("intrinsic operand indices read tensor contents")

        # Operands reading the destination tensor must address exactly the
        # element the call writes (the accumulator pattern) — otherwise a
        # batched round could observe writes out of order.
        for b in call.inputs:
            if b.program_tensor is out_b.program_tensor and not same_index(
                b.program_indices, out_b.program_indices
            ):
                raise Unvectorizable("intrinsic reads the output tensor at a different address")

        # Outer axes the destination tile depends on are batchable (tiles are
        # disjoint across them); the rest revisit tiles and run as sequential
        # rounds, preserving the accumulation order.
        batch_pos, seq_pos = nest.parallel, nest.reduction
        batch_ext = [grid[k] for k in batch_pos]
        seq_ext = [grid[k] for k in seq_pos]
        bn_total = int(np.prod(batch_ext)) if batch_ext else 1
        n_rounds = int(np.prod(seq_ext)) if seq_ext else 1

        batch_part = tuple(grid[k] if k in batch_pos else 1 for k in range(rank))
        out_np = out_b.program_tensor.dtype.np_dtype
        out_i = len(bindings) - 1
        seq_vars = {axes[k][0] for k in seq_pos}

        # Per binding: the register-index views (broadcastable over the
        # intrinsic grid), their broadcast shape ``eff`` (1 along intrinsic
        # axes the register ignores), and whether the register fill is the
        # identity layout (a plain reshape instead of a fancy scatter).
        bview: Dict[int, tuple] = {}
        eff: Dict[int, tuple] = {}
        identity_fill: Dict[int, bool] = {}
        for bi, b in enumerate(bindings):
            views = []
            for r in reg_idx[bi]:
                a = np.asarray(r)
                views.append(a.reshape((1,) * m) if a.ndim == 0 else a)
            shape = np.broadcast_shapes(*(v.shape for v in views)) if views else ()
            eff[bi] = (1,) * (m - len(shape)) + tuple(shape)
            bview[bi] = tuple(views)
            reg_shape = b.intrin_tensor.shape
            if views and eff[bi] == iext:
                flat = np.ravel_multi_index(
                    tuple(np.broadcast_to(v, iext) for v in views), reg_shape
                ).reshape(-1)
                identity_fill[bi] = flat.size == int(
                    np.prod(reg_shape)
                ) and np.array_equal(flat, np.arange(flat.size))
            else:
                identity_fill[bi] = False

        def eff_sliced(pidx, bi):
            """Drop intrinsic-axis iterations whose register writes are
            overwritten anyway: where the register index ignores an axis,
            only that axis's last iteration survives in the scalar loop."""
            out = []
            for a in pidx:
                a = np.asarray(a)
                if a.ndim == 0:
                    out.append(a)
                    continue
                index = [slice(None)] * a.ndim
                for j in range(m):
                    if eff[bi][j] == 1 and a.shape[rank + j] > 1:
                        index[rank + j] = slice(a.shape[rank + j] - 1, None)
                out.append(a[tuple(index)])
            return out

        # Pre-slice (and, under a mask, pre-clamp) the input index views once:
        # both transforms are round-independent on the small broadcastable
        # views.  Masked-out batch rows then gather in-range garbage that the
        # guarded scatter discards — far cheaper than materialising selected
        # index rows every round.
        gather_idx: Dict[int, list] = {}
        for bi, b in enumerate(call.inputs):
            pidx = eff_sliced(prog_idx[bi], bi)
            if mask is not None:
                pidx = [
                    i
                    if self._clip_elidable(i_expr, d, fctx)
                    else np.clip(np.asarray(i), 0, d - 1)
                    for i_expr, i, d in zip(
                        b.program_indices, pidx, b.program_tensor.shape
                    )
                ]
            gather_idx[bi] = pidx

        def round_slice(arr, spt):
            """Slice the sequential axes at ``spt``, keeping rank (views only).

            The result stays *broadcastable* (size-1 dims preserved): numpy's
            fancy indexing broadcasts index arrays internally, so gathers and
            scatters never materialise full integer index grids."""
            a = np.asarray(arr)
            if a.ndim == 0:
                return a
            index = [slice(None)] * a.ndim
            for k, s in zip(seq_pos, spt):
                index[k] = slice(s, s + 1) if a.shape[k] > 1 else slice(0, 1)
            return a[tuple(index)]

        # Scatter plan for the output.  The output's program indices never
        # depend on the sequential axes (those are, by definition, the axes
        # the destination tile ignores), so the index rows are
        # round-invariant; the guard mask is too unless a guard mentions a
        # sequential variable.
        pidx_o = [np.asarray(i) for i in prog_idx[out_i]]
        scat_ext = tuple(
            np.broadcast_shapes(
                *((np.shape(i)[rank + j],) for i in pidx_o if np.ndim(i)),
                (eff[out_i][j],),
            )[0]
            for j in range(m)
        )
        mask_invariant = mask is None or not any(
            seq_vars & set(E.free_vars(g)) for g in guards
        )

        def select_rows(sel_local):
            return [
                np.broadcast_to(i, batch_part + scat_ext).reshape(
                    (bn_total,) + scat_ext
                )[sel_local]
                for i in pidx_o
            ]

        # "Last write wins" slicer for the unmasked scatter: where the target
        # indices ignore an axis the value varies over, only the last
        # iteration survives — static, because the value shape is static.
        val_shape = batch_part + eff[out_i]
        bshape = np.broadcast_shapes(*(np.shape(i) for i in pidx_o))
        bfull = (1,) * (len(val_shape) - len(bshape)) + tuple(bshape)
        out_slicer = tuple(
            slice(d - 1, None) if t == 1 and d != 1 else slice(None)
            for t, d in zip(bfull, val_shape)
        )

        sel = None
        sel_rows = None
        if mask is not None and mask_invariant:
            mflat = np.broadcast_to(np.asarray(mask), batch_part[:rank]).reshape(-1)
            sel = np.nonzero(mflat)[0]
            if sel.size == 0:
                return _DeadStep(nest.stmt)
            sel_rows = select_rows(sel)

        common = dict(
            stmt=nest.stmt,
            call=call,
            inputs=list(call.inputs),
            out_tensor=out_b.program_tensor,
            out_np=out_np,
            bn_total=bn_total,
            batch_part=batch_part,
            eff=eff,
            bview=bview,
            identity_fill=identity_fill,
            out_i=out_i,
            pidx_o=pidx_o,
            scat_ext=scat_ext,
            out_slicer=out_slicer,
        )

        acc_bi = self._round_stackable(
            call, bindings, eff, mask, mask_invariant, n_rounds, seq_vars, fctx
        )
        if acc_bi is not None:
            raw_elems = sum(
                int(
                    np.prod(
                        np.broadcast_shapes(*(np.shape(v) for v in gather_idx[bi]))
                    )
                )
                for bi in range(len(call.inputs))
                if bi != acc_bi
            )
            if raw_elems <= _GRID_GATHER_BUDGET:
                return _GridIntrinsicStep(
                    acc_bi=acc_bi,
                    rank=rank,
                    n_rounds=n_rounds,
                    grid=grid,
                    iext=iext,
                    seq_axes=tuple(seq_pos),
                    gather_idx={
                        bi: tuple(gather_idx[bi]) for bi in range(len(call.inputs))
                    },
                    out_reg_shape=out_b.intrin_tensor.shape,
                    acc_idx=tuple(gather_idx[acc_bi]),
                    eff_acc=eff[acc_bi],
                    sel=sel,
                    sel_rows=sel_rows,
                    **common,
                )
        # Sequential rounds (the general path): precompute every round's
        # sliced index views and — when a guard mentions a sequential
        # variable — its per-round selection rows.
        rounds = []
        for spt in np.ndindex(*seq_ext):
            if mask is not None and not mask_invariant:
                mflat = np.broadcast_to(
                    round_slice(mask, spt), batch_part[:rank]
                ).reshape(-1)
                rsel = np.nonzero(mflat)[0]
                if rsel.size == 0:
                    continue
                rsel_rows = select_rows(rsel)
            else:
                rsel = sel
                rsel_rows = sel_rows
            input_idx = [
                tuple(round_slice(i, spt) for i in gather_idx[bi])
                for bi in range(len(call.inputs))
            ]
            rounds.append(_IntrinsicRound(input_idx, rsel, rsel_rows))
        return _IntrinsicStep(rounds=rounds, **common)

    def _round_stackable(
        self, call, bindings, eff, mask, mask_invariant, n_rounds, seq_vars, fctx
    ) -> Optional[int]:
        """Whether the sequential rounds may fold into one grid-form dispatch.

        Returns the index (into ``call.inputs``) of the accumulator operand
        when folding is sound, else ``None``.  Requirements:

        * more than one round, an invariant (or absent) guard mask;
        * a batch-polymorphic hardware model that ships a ``grid_impl``;
        * integer accumulation — the instruction's DSL description must be
          ``d[...] = c[...] + sum(...)`` with exactly one operand (``c``)
          bound to the destination buffer at the destination address, so
          ``model(acc, x) = acc + f(x)`` with wraparound integer addition,
          which makes summing per-round contributions bit-exact;
        * every input address affine in the sequential loop variables
          (successive rounds differ only by constant offsets), established
          through the memoized :func:`~repro.dsl.expr.extract_linear`.
        """
        if n_rounds <= 1:
            return None
        if mask is not None and not mask_invariant:
            return None
        intrin = call.intrin
        if intrin.hardware_impl is None or not intrin.batchable or intrin.grid_impl is None:
            return None
        out_b = call.output
        out_reg = out_b.intrin_tensor
        if not out_reg.dtype.is_integer:
            return None
        if out_b.program_tensor.dtype != out_reg.dtype:
            return None
        acc_ids = [
            i
            for i, b in enumerate(call.inputs)
            if b.program_tensor is out_b.program_tensor
        ]
        if len(acc_ids) != 1:
            return None
        acc_bi = acc_ids[0]
        acc_b = call.inputs[acc_bi]
        if eff[acc_bi] != eff[len(bindings) - 1]:
            return None
        if not same_index(acc_b.intrin_indices, out_b.intrin_indices):
            return None
        # Structural proof that the model is additive in the accumulator.
        acc = accumulation_form(intrin.op.body, acc_b.intrin_tensor, out_b.intrin_indices)
        if (
            acc is None
            or acc.combiner != "sum"
            or not isinstance(acc.rest, E.Reduce)
            or acc.rest.combiner != "sum"
            or {acc_b.intrin_tensor, intrin.op.output} & set(E.tensors_referenced(acc.rest))
        ):
            return None
        # Affine-offset precondition: every input address must be affine *in
        # the sequential loop variables* — successive rounds then differ only
        # by constant offsets.  (Fused batch-axis variables may carry div/mod;
        # they are gathered over either way.)  Fully affine addresses take the
        # memoized :func:`extract_linear` fast path.
        for bi, b in enumerate(call.inputs):
            if bi == acc_bi:
                continue
            for i_expr in b.program_indices:
                if E.extract_linear(i_expr, fctx.order) is not None:
                    continue
                if not _affine_in(i_expr, seq_vars):
                    return None
        return acc_bi


def compile_plan(func: PrimFunc, strict: bool = False) -> ExecutablePlan:
    """Compile ``func`` into an :class:`ExecutablePlan` (the analysis phase).

    ``strict`` makes compilation raise :class:`Unvectorizable` instead of
    emitting interpreter-fallback steps — useful in tests that assert full
    vectorization.  Prefer :func:`repro.tir.plan.plan_cache` (or simply
    :class:`~repro.tir.executor.Executor`) over calling this directly: the
    cache recognises structurally identical functions and compiles them once.
    """
    from ..telemetry import metrics as _metrics, trace as _trace

    with _trace.span("tir.compile_plan", func=func.name, strict=strict) as sp:
        plan = _PlanCompiler(func, strict=strict).compile()
        sp.set(
            vector_nests=plan.stats.vector_nests,
            fallback_nests=plan.stats.fallback_nests,
            proved_nests=plan.stats.proved_nests,
            elided_checks=plan.stats.elided_checks,
        )
    _metrics.count("tir.plan_compiles")
    return plan
