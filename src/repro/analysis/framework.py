"""Shared infrastructure of the static verification tier.

Every pass speaks the same two vocabularies:

* :class:`Nest` — one compilable loop nest (a chain of canonical ``For``
  loops, ``likely`` guards and pragma scopes ending in a ``Store`` or an
  ``IntrinsicCall``).  :func:`iter_nests` is the same function (re-exported
  from :mod:`repro.tir.visitor`) that :func:`repro.tir.engine.compile_plan`
  walks, so "nest N proved safe" is the same region to both;
* :class:`Diagnostic` — a finding that names the pass, the nest, the exact
  index expression and (for bounds violations) the violating interval, so a
  rejected rewrite is debuggable without re-running anything.

:class:`AnalysisReport` aggregates per-nest proofs plus diagnostics and
serialises to the JSON consumed by the ``static-analysis`` CI job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..tir.visitor import Nest, iter_nests, remembered

__all__ = ["Diagnostic", "Nest", "NestProof", "AnalysisReport", "iter_nests", "remembered"]


@dataclass
class Diagnostic:
    """One finding of a static-analysis pass."""

    pass_name: str  # "structure" | "bounds" | "overlap" | "dtype"
    severity: str  # "error" | "warning"
    message: str
    nest: str = ""
    index_expr: Optional[str] = None
    interval: Optional[Tuple[int, int]] = None

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def format(self) -> str:
        parts = [f"[{self.pass_name}:{self.severity}]"]
        if self.nest:
            parts.append(f"nest `{self.nest}`:")
        parts.append(self.message)
        if self.index_expr is not None:
            parts.append(f"(index {self.index_expr}")
            if self.interval is not None:
                parts[-1] += f" ∈ [{self.interval[0]}, {self.interval[1]}]"
            parts[-1] += ")"
        return " ".join(parts)

    def to_json(self) -> dict:
        return {
            "pass": self.pass_name,
            "severity": self.severity,
            "nest": self.nest,
            "message": self.message,
            "index_expr": self.index_expr,
            "interval": list(self.interval) if self.interval else None,
        }


@dataclass
class NestProof:
    """What the passes managed to prove about one nest."""

    nest: str
    kind: str  # "store" | "intrinsic" | "other"
    bounds_proved: bool = False
    bounds_conditional: bool = False  # the proof leaned on likely guards
    disjoint_tiles: Optional[bool] = None  # intrinsic nests only
    accesses: int = 0

    @property
    def proved(self) -> bool:
        if self.kind == "intrinsic":
            return self.bounds_proved and self.disjoint_tiles is True
        return self.bounds_proved

    def to_json(self) -> dict:
        return {
            "nest": self.nest,
            "kind": self.kind,
            "proved": self.proved,
            "bounds_proved": self.bounds_proved,
            "bounds_conditional": self.bounds_conditional,
            "disjoint_tiles": self.disjoint_tiles,
            "accesses": self.accesses,
        }


@dataclass
class AnalysisReport:
    """The combined result of all passes over one PrimFunc."""

    func_name: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    nest_proofs: List[NestProof] = field(default_factory=list)

    @property
    def total_nests(self) -> int:
        return len(self.nest_proofs)

    @property
    def proved_nests(self) -> int:
        return sum(1 for p in self.nest_proofs if p.proved)

    @property
    def unproven_nests(self) -> List[NestProof]:
        return [p for p in self.nest_proofs if not p.proved]

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if not d.is_error]

    def ok(self, strict: bool = False) -> bool:
        """No errors; under ``strict`` additionally every nest proved."""
        if self.errors:
            return False
        if strict and self.proved_nests != self.total_nests:
            return False
        return True

    def summary(self) -> str:
        status = "ok" if self.ok() else "FAIL"
        return (
            f"{self.func_name}: {status} — {self.proved_nests}/{self.total_nests} "
            f"nests proved, {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )

    def to_json(self) -> dict:
        return {
            "func": self.func_name,
            "total_nests": self.total_nests,
            "proved_nests": self.proved_nests,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "nests": [p.to_json() for p in self.nest_proofs],
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }
