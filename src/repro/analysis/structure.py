"""Structural verification of tensor-IR programs (``repro.tir.verify``).

Declares what a tensor-IR program may contain and checks the invariants the
paper relies on (Section II-C.3): canonical loops, no variable shadowing,
all loads/stores referring to buffers that are either parameters or
allocated in scope, and every intrinsic operand bound to visible buffers
over bound variables — including the tensors an operand *index expression*
itself reads (indirect addressing), which must be visible in the
``Allocate`` scope of the call.

**The language.**  Statements are ``For``, ``SeqStmt``, ``IfThenElse``,
``AttrStmt``, ``Allocate``, ``Store`` and ``IntrinsicCall``; expressions —
store values and indices, guards, and both index tuples of an operand
binding — are built from :data:`TIR_EXPR_KINDS` only.  ``Reduce`` is a
*DSL* node: it is legal in a compute definition and in an instruction's
description, never in a ``PrimFunc`` body (``lower`` splits a reduction
into an init store and an update store).  Every tier downstream — the
interpreter, the vectorized engine, the native emitter — implements exactly
this set, so a producer that emits anything else is rejected here, by name.

``verify_structure`` raises :class:`VerificationError` on the first
violation (re-exported as ``repro.tir.verify``); ``structure_diagnostics``
collects it as a diagnostic for the combined report.
"""

from __future__ import annotations

from typing import List, Set

from ..dsl import expr as E
from ..dsl.tensor import Tensor
from ..tir.stmt import (
    Allocate,
    AttrStmt,
    For,
    IfThenElse,
    IntrinsicCall,
    SeqStmt,
    Stmt,
    Store,
)
from .framework import Diagnostic, remembered

__all__ = [
    "TIR_EXPR_KINDS",
    "VerificationError",
    "verify_structure",
    "structure_diagnostics",
]

# The tensor-IR expression language (exact classes, not subclasses).
TIR_EXPR_KINDS = frozenset(
    {
        E.Const,
        E.Var,
        E.Cast,
        E.Add,
        E.Sub,
        E.Mul,
        E.FloorDiv,
        E.Mod,
        E.Min,
        E.Max,
        E.Compare,
        E.Select,
        E.TensorLoad,
    }
)


class VerificationError(Exception):
    """Raised when a tensor-IR program violates a structural invariant."""


def verify_structure(func) -> None:
    """Verify ``func``; raises :class:`VerificationError` on the first violation."""
    visible: Set[Tensor] = set(func.params)
    bound_vars: Set[E.Var] = set()
    _check(func.body, visible, bound_vars)


@remembered("structure")
def structure_diagnostics(func) -> List[Diagnostic]:
    """All structural violations of ``func`` as diagnostics (never raises)."""
    try:
        verify_structure(func)
    except VerificationError as exc:
        return [Diagnostic("structure", "error", str(exc))]
    return []


def _check(stmt: Stmt, visible: Set[Tensor], bound: Set[E.Var]) -> None:
    if isinstance(stmt, For):
        if stmt.var in bound:
            raise VerificationError(f"loop variable {stmt.var.name!r} is shadowed")
        if stmt.extent <= 0:
            raise VerificationError("loop extent must be positive")
        _check(stmt.body, visible, bound | {stmt.var})
    elif isinstance(stmt, SeqStmt):
        for s in stmt.stmts:
            _check(s, visible, bound)
    elif isinstance(stmt, IfThenElse):
        _check_expr(stmt.condition, visible, bound)
        _check(stmt.then_case, visible, bound)
        if stmt.else_case is not None:
            _check(stmt.else_case, visible, bound)
    elif isinstance(stmt, AttrStmt):
        _check(stmt.body, visible, bound)
    elif isinstance(stmt, Allocate):
        _check(stmt.body, visible | {stmt.tensor}, bound)
    elif isinstance(stmt, Store):
        if stmt.tensor not in visible:
            raise VerificationError(f"store into unknown buffer {stmt.tensor.name!r}")
        for idx in stmt.indices:
            _check_expr(idx, visible, bound)
        _check_expr(stmt.value, visible, bound)
    elif isinstance(stmt, IntrinsicCall):
        intrin_axis_vars = {ax.var for ax in stmt.axes}
        for binding in list(stmt.inputs) + [stmt.output]:
            if binding.program_tensor not in visible:
                raise VerificationError(
                    f"intrinsic operand uses unknown buffer "
                    f"{binding.program_tensor.name!r}"
                )
            for idx in binding.program_indices:
                for var in E.free_vars(idx):
                    if var not in bound and var not in intrin_axis_vars:
                        raise VerificationError(
                            f"intrinsic operand index uses unbound variable {var.name!r}"
                        )
                # Indirect addressing: region reads inside the operand index
                # must be visible in the Allocate scope of the call.
                for node in E.post_order(idx):
                    if node.__class__ not in TIR_EXPR_KINDS:
                        raise _foreign(node, "an intrinsic operand index")
                    if isinstance(node, E.TensorLoad) and node.tensor not in visible:
                        raise VerificationError(
                            f"intrinsic operand index reads unknown buffer "
                            f"{node.tensor.name!r}"
                        )
            for idx in binding.intrin_indices:
                for node in E.post_order(idx):
                    if node.__class__ not in TIR_EXPR_KINDS:
                        raise _foreign(node, "an intrinsic register index")
    else:
        raise VerificationError(f"unknown statement type {type(stmt).__name__}")


def _foreign(node: E.Expr, where: str) -> VerificationError:
    return VerificationError(
        f"{type(node).__name__} is not a tensor-IR expression kind (found in {where})"
    )


def _check_expr(expr: E.Expr, visible: Set[Tensor], bound: Set[E.Var]) -> None:
    cls = expr.__class__
    if cls not in TIR_EXPR_KINDS:
        raise _foreign(expr, "a store or guard expression")
    if cls is E.Var:
        if expr not in bound:
            raise VerificationError(f"use of unbound variable {expr.name!r}")
        return
    if cls is E.TensorLoad and expr.tensor not in visible:
        raise VerificationError(f"load from unknown buffer {expr.tensor.name!r}")
    for child in expr.children:
        _check_expr(child, visible, bound)
