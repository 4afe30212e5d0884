"""Dtype & overflow lint: accumulation chains and narrowing casts.

The paper's instructions are mixed precision — ``int8 × int8 → int32`` dot
products — which is safe only while the *longest possible accumulation
chain* stays inside the accumulator's range.  This pass bounds every stored
value with interval arithmetic where a ``TensorLoad`` contributes its
tensor's full dtype range, a ``Reduce`` multiplies its source interval by
the reduction cardinality, and an accumulating store additionally multiplies
by the nest's own reduction extents (the sequential revisit rounds — the
shared reading's ``Nest.accumulation`` / ``Nest.reduction``).  A store whose
worst-case interval escapes the destination dtype is flagged, as is a
``Cast`` whose incoming interval does not fit the target type.

Every finding here is a *warning*, not an error: overflow is a property of
the program's declared semantics (the scalar reference wraps identically),
so it is data-dependent lint, not a rewrite-soundness violation — unlike
the bounds and overlap passes, whose errors reject a candidate outright in
:func:`repro.analysis.verify_rewrite`.

Intrinsic nests are checked through the instruction's own DSL body: the
per-call contribution interval is scaled by the number of sequential rounds
the nest performs against the accumulator register's dtype.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..dsl import expr as E
from ..tir.stmt import IntrinsicCall, Store
from .framework import Diagnostic, Nest, iter_nests, remembered
from .interval import Env, Interval, expr_interval, loop_env

__all__ = ["analyze_dtypes"]


def _dtype_range(dtype) -> Optional[Interval]:
    if not (dtype.is_integer or dtype.is_bool):
        return None
    return Interval(int(dtype.min_value), int(dtype.max_value))


def _load_range(load: E.TensorLoad) -> Optional[Interval]:
    return _dtype_range(load.tensor.dtype)


@remembered("dtype")
def analyze_dtypes(func) -> List[Diagnostic]:
    """Lint every nest of ``func`` for overflow and narrowing casts."""
    diags: List[Diagnostic] = []
    for nest in iter_nests(func):
        if isinstance(nest.body, Store):
            _check_store(nest, nest.body, diags)
        elif isinstance(nest.body, IntrinsicCall):
            _check_intrinsic(nest, nest.body, diags)
    return diags


def _check_store(nest: Nest, store: Store, diags: List[Diagnostic]) -> None:
    out_range = _dtype_range(store.tensor.dtype)
    if out_range is None:
        return  # float stores: rounding, not wraparound — nothing to lint
    env = loop_env(nest.axes)
    _flag_narrowing_casts(nest, store.value, env, diags)

    acc = nest.accumulation
    rest_iv = expr_interval(store.value if acc is None else acc.rest, env, _load_range)
    if rest_iv is None:
        return
    if acc is None or acc.combiner != "sum":
        # A plain store; or a max/min chain, which never grows past its operands.
        if not _fits(rest_iv, out_range):
            diags.append(_overflow(nest, store, rest_iv, out_range))
        return
    # The accumulator is revisited once per point of the nest's reduction
    # domain: every loop axis the store indices do not depend on.
    rounds = math.prod(nest.axes[k][1] for k in nest.reduction)
    total = Interval(min(0, rest_iv.lo * rounds), max(0, rest_iv.hi * rounds))
    if not _fits(total, out_range):
        diags.append(
            Diagnostic(
                "dtype",
                "warning",
                f"accumulation chain over {rounds} round(s) can overflow "
                f"{store.tensor.dtype.name} (worst-case sum {total})",
                nest=nest.name,
                index_expr=str(store.value),
                interval=(total.lo, total.hi),
            )
        )


def _check_intrinsic(nest: Nest, call: IntrinsicCall, diags: List[Diagnostic]) -> None:
    out_b = call.output
    out_range = _dtype_range(out_b.program_tensor.dtype)
    if out_range is None:
        return
    intrin = call.intrin
    op = getattr(intrin, "op", None)
    body = getattr(op, "body", None) if op is not None else None
    if body is None:
        return
    # Per-call contribution: the instruction body with the accumulator
    # register contributing zero (the engine's stacked dispatch does exactly
    # this), over the intrinsic's own axes.
    acc_tensors = {
        b.intrin_tensor
        for b in call.inputs
        if b.program_tensor is out_b.program_tensor
    }

    def load_range(load: E.TensorLoad) -> Optional[Interval]:
        if load.tensor in acc_tensors or load.tensor is out_b.intrin_tensor:
            return Interval(0, 0)
        return _dtype_range(load.tensor.dtype)

    env: Env = {}
    contribution = expr_interval(body, env, load_range)
    if contribution is None:
        return
    # Sequential rounds: nest axes the output address does not depend on.
    rounds = math.prod(nest.axes[k][1] for k in nest.reduction)
    total = Interval(
        min(0, contribution.lo * rounds), max(0, contribution.hi * rounds)
    )
    if not _fits(total, out_range):
        diags.append(
            Diagnostic(
                "dtype",
                "warning",
                f"{intrin.name} accumulation over {rounds} round(s) can "
                f"overflow {out_b.program_tensor.dtype.name} "
                f"(worst case {total})",
                nest=nest.name,
                index_expr=str(tuple(out_b.program_indices)),
            )
        )


def _flag_narrowing_casts(
    nest: Nest, expr: E.Expr, env: Env, diags: List[Diagnostic]
) -> None:
    for node in E.post_order(expr):
        if not isinstance(node, E.Cast):
            continue
        target = _dtype_range(node.dtype)
        if target is None:
            continue
        source_iv = expr_interval(node.value, env, _load_range)
        if source_iv is None:
            # Unknown source: only a *structurally* narrowing cast is worth
            # flagging (wider integer type into a strictly narrower one).
            src_dt = node.value.dtype
            if (
                (src_dt.is_integer or src_dt.is_bool)
                and node.dtype.bits < src_dt.bits
            ):
                diags.append(_narrowing(nest, node, None))
            continue
        if not _fits(source_iv, target):
            diags.append(_narrowing(nest, node, source_iv))


def _fits(iv: Interval, rng: Interval) -> bool:
    return rng.lo <= iv.lo and iv.hi <= rng.hi


def _overflow(nest: Nest, store: Store, iv: Interval, rng: Interval) -> Diagnostic:
    return Diagnostic(
        "dtype",
        "warning",
        f"stored value can overflow {store.tensor.dtype.name} "
        f"(value {iv} vs range {rng})",
        nest=nest.name,
        index_expr=str(store.value),
        interval=(iv.lo, iv.hi),
    )


def _narrowing(nest: Nest, cast: E.Cast, iv: Optional[Interval]) -> Diagnostic:
    detail = f"value {iv} does not fit" if iv is not None else "value range unknown"
    return Diagnostic(
        "dtype",
        "warning",
        f"narrowing cast to {cast.dtype.name} ({detail})",
        nest=nest.name,
        index_expr=str(cast),
    )
