"""Bounds & shape analysis: prove every buffer access in-bounds, statically.

For each nest, every loop variable contributes ``[0, extent)`` to the
interval environment; every ``TensorLoad``/``Store`` index (including those
of intrinsic operand bindings, which additionally bind the intrinsic axes)
must then evaluate to an interval inside the addressed dimension.
``likely``-guarded residues are handled by affine guard composition
(:func:`repro.analysis.interval.refine_with_guards`): an index that exceeds
its dimension over the raw grid may still be *proved in-bounds inside the
guarded region*, which is exactly the imperfect-split situation — the proof
is then recorded as *conditional*, and the engine keeps its masked-gather
clamps for that access while eliding them for unconditionally proved ones.

A failed proof yields a diagnostic naming the nest, the exact index
expression and the violating interval.  An index the interval domain cannot
bound at all (data-dependent addressing) yields an *unproven* nest, not an
error: the program may still be correct, it just is not analyzable.
"""

from __future__ import annotations

from typing import List, Tuple

from ..dsl import expr as E
from ..tir.stmt import IntrinsicCall, Store
from .framework import Diagnostic, Nest, NestProof, iter_nests, remembered
from .interval import Env, loop_env, prove_in_range

__all__ = ["analyze_bounds", "check_nest_bounds"]


@remembered("bounds")
def analyze_bounds(func) -> Tuple[List[NestProof], List[Diagnostic]]:
    """Prove every access of every nest of ``func`` in-bounds."""
    proofs: List[NestProof] = []
    diagnostics: List[Diagnostic] = []
    for nest in iter_nests(func):
        proof, diags = check_nest_bounds(nest)
        proofs.append(proof)
        diagnostics.extend(diags)
    return proofs, diagnostics


def check_nest_bounds(nest: Nest) -> Tuple[NestProof, List[Diagnostic]]:
    """The per-nest bounds proof; shared with the rewrite verifier."""
    diags: List[Diagnostic] = []
    env = loop_env(nest.axes)
    checker = _AccessChecker(nest, diags)
    if isinstance(nest.body, Store):
        kind, store = "store", nest.body
        for dim, idx in enumerate(store.indices):
            checker.check_index(store.tensor, dim, idx, env, "store")
        checker.check_value(store.value, env)
    elif isinstance(nest.body, IntrinsicCall):
        kind, call = "intrinsic", nest.body
        # Operand bindings are written over the nest loops plus the
        # intrinsic's own axes.
        env.update(loop_env((ax.var, ax.extent) for ax in call.axes))
        for binding in list(call.inputs) + [call.output]:
            for dim, idx in enumerate(binding.program_indices):
                checker.check_index(binding.program_tensor, dim, idx, env, "operand")
            for dim, idx in enumerate(binding.intrin_indices):
                checker.check_index(binding.intrin_tensor, dim, idx, env, "register")
    else:
        # Not a store or intrinsic nest: the engine falls back to the
        # interpreter here; nothing to prove, nothing proved.
        return NestProof(nest.name, "other"), diags
    return (
        NestProof(nest.name, kind, checker.all_proved, checker.used_guard, accesses=checker.accesses),
        diags,
    )


class _AccessChecker:
    """Walks accesses of one nest, proving each index dimension in-range."""

    def __init__(self, nest: Nest, diags: List[Diagnostic]) -> None:
        self.nest = nest
        self.diags = diags
        self.accesses = 0
        self.all_proved = True
        self.used_guard = False

    def check_index(self, tensor, dim: int, idx: E.Expr, env: Env, what: str) -> None:
        self.accesses += 1
        extent = tensor.shape[dim]
        proved, used_guard, interval = prove_in_range(
            idx, extent, env, self.nest.guards
        )
        if proved:
            self.used_guard = self.used_guard or used_guard
            return
        self.all_proved = False
        if interval is None:
            self.diags.append(
                Diagnostic(
                    "bounds",
                    "warning",
                    f"cannot bound {what} index into "
                    f"{tensor.name!r} dim {dim} (extent {extent})",
                    nest=self.nest.name,
                    index_expr=str(idx),
                )
            )
            return
        self.diags.append(
            Diagnostic(
                "bounds",
                "error",
                f"{what} index into {tensor.name!r} dim {dim} may leave "
                f"[0, {extent - 1}]",
                nest=self.nest.name,
                index_expr=str(idx),
                interval=(interval.lo, interval.hi),
            )
        )

    def check_value(self, expr: E.Expr, env: Env) -> None:
        """Check every load reachable from a store value."""
        if isinstance(expr, E.TensorLoad):
            for dim, idx in enumerate(expr.indices):
                self.check_index(expr.tensor, dim, idx, env, "load")
                # Indirect addressing: the index itself may read tensors.
                for child in idx.children:
                    self.check_value(child, env)
            return
        for child in expr.children:
            self.check_value(child, env)
