"""``repro.analysis`` — the static verification tier.

A dataflow / abstract-interpretation framework over :class:`PrimFunc`s with
three cooperating passes, plus the structural verifier they subsume:

* **structure** (:mod:`.structure`) — the folded ``tir.verify`` pass:
  canonical loops, visibility, binding well-formedness, vector lanes;
* **bounds** (:mod:`.bounds`) — interval arithmetic over loop extents
  composed with affine index decomposition proves every load/store
  in-bounds, including ``likely``-guarded residues;
* **overlap** (:mod:`.overlap`) — proves intrinsic output tiles disjoint,
  detects read-write hazards between accumulation rounds and uninitialized
  accumulators;
* **dtype** (:mod:`.dtypes`) — integer accumulation chains stay within the
  declared accumulator width; narrowing casts are flagged.

:func:`analyze` runs all passes and returns an :class:`AnalysisReport`;
:func:`verify_rewrite` is the cheap gate the Rewriter applies to every
tensorized candidate before it reaches the cost model.  The proofs are also
consumed by :func:`repro.tir.engine.compile_plan`, which elides the runtime
guards (masked-gather clamps) that a static proof makes redundant — see
``PlanStats.proved_nests`` / ``elided_checks``.

Every pass result and the report are derived once per function body
(:func:`repro.tir.visitor.remembered`): ``verify_rewrite``, ``analyze`` and
``compile_plan`` read one set of proofs; ``check_nest_*`` are the raw checks.

``python -m repro.analysis --all --strict`` sweeps the 16 Table-1 layers
plus the model zoo and emits the JSON report consumed by the
``static-analysis`` CI job.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from .bounds import analyze_bounds, check_nest_bounds
from .dtypes import analyze_dtypes
from .framework import AnalysisReport, Diagnostic, Nest, NestProof, iter_nests, remembered
from .interval import (
    Interval,
    affine_interval,
    expr_interval,
    loop_env,
    prove_in_range,
    refine_with_guards,
)
from .overlap import analyze_overlap, check_nest_overlap, check_tiles_disjoint
from .structure import VerificationError, structure_diagnostics, verify_structure

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "Diagnostic",
    "Interval",
    "Nest",
    "NestProof",
    "VerificationError",
    "affine_interval",
    "analyze",
    "analyze_bounds",
    "analyze_dtypes",
    "analyze_overlap",
    "check_nest_bounds",
    "check_nest_overlap",
    "check_tiles_disjoint",
    "expr_interval",
    "iter_nests",
    "loop_env",
    "prove_in_range",
    "refine_with_guards",
    "structure_diagnostics",
    "verify_structure",
    "verify_rewrite",
]


class AnalysisError(Exception):
    """Raised by :func:`verify_rewrite` when a candidate fails a pass."""

    def __init__(self, diagnostics: List[Diagnostic]) -> None:
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.format() for d in self.diagnostics))


@remembered("report")
def analyze(func) -> AnalysisReport:
    """Run every static pass over ``func`` and combine the results (once
    per function body: callers share the report, so treat it as read-only)."""
    report = AnalysisReport(func_name=func.name)
    report.diagnostics.extend(structure_diagnostics(func))

    proofs, bound_diags = analyze_bounds(func)
    report.diagnostics.extend(bound_diags)

    disjoint, overlap_diags = analyze_overlap(func)
    report.diagnostics.extend(overlap_diags)
    report.nest_proofs = [
        replace(proof, disjoint_tiles=dj) for proof, dj in zip(proofs, disjoint)
    ]

    report.diagnostics.extend(analyze_dtypes(func))
    return report


def verify_rewrite(func) -> AnalysisReport:
    """Verify a rewritten candidate before it reaches the cost model.

    Runs the full pass stack and raises :class:`AnalysisError` when any
    pass reports an *error* (unproven-but-plausible nests only produce
    warnings and do not reject the candidate — the engine still guards them
    at run time).  Returns the report so callers can record proof counts.
    """
    report = analyze(func)
    errors = report.errors
    if errors:
        raise AnalysisError(errors)
    return report
