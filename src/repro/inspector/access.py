"""Array-access isomorphism: enumerating and checking loop mappings.

After arithmetic isomorphism succeeds, the Inspector must decide *which* loop
levels of the tensor operation are executed by the instruction.  It enumerates
candidate mappings ``f : A -> B`` from operation loops (A) onto instruction
loops (B) — only loops with the same annotation may map to each other — and
accepts a mapping iff, for every matched pair of memory accesses ``(u, v)``
(``u`` from the operation, ``v`` from the instruction),

    S'(u) ⊆ S(v)   where   S'(u) = { f(x) | x ∈ S(u) ∩ A }

(Section III-B.2).  If ``S'(u)`` is a *strict* subset, the data must be
broadcast across the missing instruction loops; if the condition fails, one
register lane would correspond to several memory addresses and the mapping is
rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..dsl.axis import IterAxis
from ..dsl.compute import ComputeOp
from ..dsl.expr import Expr, TensorLoad, Var, free_vars
from .isomorphism import IsomorphismResult

__all__ = ["LoopMapping", "enumerate_mappings", "check_mapping", "feasible_mappings"]


@dataclass
class LoopMapping:
    """A candidate assignment of operation loops to instruction loops."""

    # Operation axis -> instruction axis (the paper's f : A -> B).
    axis_map: Dict[IterAxis, IterAxis] = field(default_factory=dict)

    @property
    def instr_axes(self) -> List[IterAxis]:
        return list(self.axis_map.values())

    def broadcast_axes(self, load_pairs) -> Dict[TensorLoad, List[IterAxis]]:
        """For each instruction load, the instruction axes along which the
        program data must be broadcast (S(v) \\ S'(u))."""
        out: Dict[TensorLoad, List[IterAxis]] = {}
        for instr_load, prog_load in load_pairs:
            s_v = _axis_set(instr_load, self.instr_axes)
            s_prime = self._image(prog_load)
            out[instr_load] = [ax for ax in self.instr_axes if ax in s_v and ax not in s_prime]
        return out

    def _image(self, prog_load: TensorLoad) -> Set[IterAxis]:
        vars_in_u = set()
        for idx in prog_load.indices:
            vars_in_u.update(free_vars(idx))
        return {
            self.axis_map[ax]
            for ax in self.axis_map
            if ax.var in vars_in_u
        }

    def __repr__(self) -> str:
        pairs = ", ".join(f"{a.name}->{b.name}" for a, b in self.axis_map.items())
        return f"LoopMapping({pairs})"


def _axis_set(load: TensorLoad, axes: Iterable[IterAxis]) -> Set[IterAxis]:
    """The set of given axes whose variables appear in the load's indices."""
    axes = list(axes)
    vars_in = set()
    for idx in load.indices:
        vars_in.update(free_vars(idx))
    return {ax for ax in axes if ax.var in vars_in}


def enumerate_mappings(prog_op: ComputeOp, instr_op: ComputeOp) -> List[LoopMapping]:
    """Enumerate all type-respecting injective mappings of instruction loops.

    Every instruction loop must be assigned exactly one distinct operation
    loop of the same kind (data-parallel or reduction).  Candidates are
    ordered so that mappings using the operation's innermost dimensions come
    first — the greedy preference described in Section IV-A (better data
    locality for inner dimensions).
    """
    prog_dp = list(prog_op.axes)
    prog_red = list(prog_op.reduce_axes)
    instr_dp = list(instr_op.axes)
    instr_red = list(instr_op.reduce_axes)

    if len(prog_dp) < len(instr_dp) or len(prog_red) < len(instr_red):
        return []

    # Prefer operation loops that are declared later (innermost).
    prog_dp_order = list(reversed(prog_dp))
    prog_red_order = list(reversed(prog_red))

    mappings: List[LoopMapping] = []
    for dp_choice in itertools.permutations(prog_dp_order, len(instr_dp)):
        for red_choice in itertools.permutations(prog_red_order, len(instr_red)):
            axis_map: Dict[IterAxis, IterAxis] = {}
            for prog_ax, instr_ax in zip(dp_choice, instr_dp):
                axis_map[prog_ax] = instr_ax
            for prog_ax, instr_ax in zip(red_choice, instr_red):
                axis_map[prog_ax] = instr_ax
            mappings.append(LoopMapping(axis_map))
    return mappings


def check_mapping(
    mapping: LoopMapping,
    iso: IsomorphismResult,
    instr_op: ComputeOp,
) -> Tuple[bool, str]:
    """Check the feasibility condition ``S'(u) ⊆ S(v)`` for every access pair."""
    instr_axes = instr_op.all_axes
    mapped_op_axes = mapping.axis_map
    for instr_load, prog_load in iso.load_pairs:
        s_v = _axis_set(instr_load, instr_axes)
        # S(u) ∩ A, then its image through f.
        vars_in_u: Set[Var] = set()
        for idx in prog_load.indices:
            vars_in_u.update(free_vars(idx))
        s_prime = {
            mapped_op_axes[ax] for ax in mapped_op_axes if ax.var in vars_in_u
        }
        if not s_prime.issubset(s_v):
            missing = ", ".join(ax.name for ax in s_prime - s_v)
            return False, (
                f"access {prog_load.tensor.name!r} varies along instruction "
                f"loops [{missing}] that the register operand "
                f"{instr_load.tensor.name!r} does not index — one lane would "
                f"correspond to multiple addresses"
            )
    return True, ""


def feasible_mappings(
    prog_op: ComputeOp, instr_op: ComputeOp, iso: IsomorphismResult
) -> List[LoopMapping]:
    """All feasible loop mappings, in locality-preference order."""
    result = []
    for mapping in enumerate_mappings(prog_op, instr_op):
        ok, _ = check_mapping(mapping, iso, instr_op)
        if ok:
            result.append(mapping)
    return result
