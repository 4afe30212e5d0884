"""Schedule primitives: split / fuse / reorder / annotate / tensorize.

A schedule never changes what is computed — only how the loop nest is
organised.  This mirrors TVM's scheduling language, which is the substrate the
paper's Rewriter drives (Section III-C / IV-B): the Rewriter tiles the matched
loops, reorders them innermost, annotates them with a ``tensorize`` pragma,
and organises the remaining loops for parallelism and unrolling.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..dsl.axis import AxisKind, IterAxis
from ..dsl.compute import ComputeOp
from ..dsl.dtype import int32
from ..dsl.expr import Expr, Var

__all__ = ["Annotation", "LoopVar", "Stage", "Schedule", "create_schedule"]


class Annotation(Enum):
    """How a loop level is to be emitted by the lowering pass."""

    SERIAL = "serial"
    PARALLEL = "parallel"
    UNROLL = "unroll"
    VECTORIZE = "vectorize"
    TENSORIZE = "tensorize"
    BLOCK_X = "blockIdx.x"
    BLOCK_Y = "blockIdx.y"
    THREAD_X = "threadIdx.x"
    THREAD_Y = "threadIdx.y"

    @property
    def is_gpu_binding(self) -> bool:
        return self in (
            Annotation.BLOCK_X,
            Annotation.BLOCK_Y,
            Annotation.THREAD_X,
            Annotation.THREAD_Y,
        )


class LoopVar:
    """One loop level of a schedule (a root axis or a derived axis)."""

    def __init__(self, name: str, extent: int, kind: AxisKind) -> None:
        self.name = name
        self.extent = int(extent)
        self.kind = kind
        self.var = Var(name, int32)
        self.annotation = Annotation.SERIAL
        self.pragmas: Dict[str, object] = {}

    @property
    def is_reduce(self) -> bool:
        return self.kind == AxisKind.REDUCE

    def __repr__(self) -> str:
        tag = "reduce" if self.is_reduce else "parallel"
        return f"LoopVar({self.name}, extent={self.extent}, {tag}, {self.annotation.value})"


class _SplitRelation:
    def __init__(self, parent: LoopVar, outer: LoopVar, inner: LoopVar, factor: int) -> None:
        self.parent = parent
        self.outer = outer
        self.inner = inner
        self.factor = int(factor)

    @property
    def perfect(self) -> bool:
        return self.parent.extent % self.factor == 0


class _FuseRelation:
    def __init__(self, outer: LoopVar, inner: LoopVar, fused: LoopVar) -> None:
        self.outer = outer
        self.inner = inner
        self.fused = fused


class Stage:
    """The schedule of a single :class:`ComputeOp`."""

    def __init__(self, op: ComputeOp) -> None:
        self.op = op
        self.relations: List[object] = []
        self.root_loops: Dict[IterAxis, LoopVar] = {}
        leafs: List[LoopVar] = []
        for axis in op.all_axes:
            loop = LoopVar(axis.name, axis.extent, axis.kind)
            self.root_loops[axis] = loop
            leafs.append(loop)
        self.leaf_vars: List[LoopVar] = leafs
        # Tensorize state: the loop at which the intrinsic is injected, and the
        # intrinsic itself (set via .tensorize()).
        self.tensorize_loop: Optional[LoopVar] = None
        self.tensorize_intrin = None

    # -- lookup -----------------------------------------------------------
    def __getitem__(self, axis: IterAxis) -> LoopVar:
        """The schedule loop currently standing for a root axis."""
        return self.root_loops[axis]

    def _check_leaf(self, loop: LoopVar) -> None:
        if loop not in self.leaf_vars:
            raise ValueError(f"{loop!r} is not a leaf loop of this stage")

    # -- transformations --------------------------------------------------
    def split(self, loop: LoopVar, factor: int) -> Tuple[LoopVar, LoopVar]:
        """Split ``loop`` by ``factor`` into ``(outer, inner)``.

        Imperfect splits (extent not divisible by the factor) are allowed and
        produce a guarded residue, mirroring TVM's ``likely`` clause; the
        paper notes this guard is what hurts workloads #1 and #4 on CPU.
        """
        self._check_leaf(loop)
        factor = int(factor)
        if factor <= 0:
            raise ValueError("split factor must be positive")
        outer_extent = _ceil_div(loop.extent, factor)
        outer = LoopVar(f"{loop.name}.o", outer_extent, loop.kind)
        inner = LoopVar(f"{loop.name}.i", factor, loop.kind)
        idx = self.leaf_vars.index(loop)
        self.leaf_vars[idx : idx + 1] = [outer, inner]
        self.relations.append(_SplitRelation(loop, outer, inner, factor))
        return outer, inner

    def fuse(self, outer: LoopVar, inner: LoopVar) -> LoopVar:
        """Fuse two *adjacent* leaf loops into one."""
        self._check_leaf(outer)
        self._check_leaf(inner)
        io, ii = self.leaf_vars.index(outer), self.leaf_vars.index(inner)
        if ii != io + 1:
            raise ValueError("can only fuse adjacent loops (reorder first)")
        if outer.kind != inner.kind:
            raise ValueError("cannot fuse a data-parallel loop with a reduce loop")
        fused = LoopVar(f"{outer.name}.{inner.name}.f", outer.extent * inner.extent, outer.kind)
        self.leaf_vars[io : io + 2] = [fused]
        self.relations.append(_FuseRelation(outer, inner, fused))
        return fused

    def fuse_many(self, loops: Sequence[LoopVar]) -> LoopVar:
        """Fuse a run of adjacent loops left-to-right."""
        loops = list(loops)
        if not loops:
            raise ValueError("fuse_many requires at least one loop")
        result = loops[0]
        for nxt in loops[1:]:
            result = self.fuse(result, nxt)
        return result

    def reorder(self, *loops: LoopVar) -> None:
        """Reorder the given leaf loops into the given relative order.

        Loops not mentioned keep their positions.
        """
        for loop in loops:
            self._check_leaf(loop)
        if len(set(loops)) != len(loops):
            raise ValueError("duplicate loop in reorder")
        positions = sorted(self.leaf_vars.index(l) for l in loops)
        for pos, loop in zip(positions, loops):
            self.leaf_vars[pos] = loop

    # -- annotations ------------------------------------------------------
    def parallel(self, loop: LoopVar) -> None:
        self._annotate(loop, Annotation.PARALLEL)

    def unroll(self, loop: LoopVar) -> None:
        self._annotate(loop, Annotation.UNROLL)

    def vectorize(self, loop: LoopVar) -> None:
        self._annotate(loop, Annotation.VECTORIZE)

    def bind(self, loop: LoopVar, thread_tag: str) -> None:
        """Bind a loop to a GPU block/thread index, e.g. ``"threadIdx.x"``."""
        mapping = {a.value: a for a in Annotation if a.is_gpu_binding}
        if thread_tag not in mapping:
            raise ValueError(f"unknown thread tag {thread_tag!r}")
        self._annotate(loop, mapping[thread_tag])

    def pragma(self, loop: LoopVar, key: str, value=True) -> None:
        self._check_leaf(loop)
        loop.pragmas[key] = value

    def tensorize(self, loop: LoopVar, intrinsic) -> None:
        """Replace the loop nest rooted at ``loop`` with a tensorized instruction.

        ``loop`` and every leaf loop after it become the instruction's loops;
        the lowering pass emits a ``tensorize`` pragma that the Rewriter's
        replacement pass consumes.
        """
        self._check_leaf(loop)
        self._annotate(loop, Annotation.TENSORIZE)
        loop.pragmas["tensorize"] = intrinsic.name if hasattr(intrinsic, "name") else str(intrinsic)
        self.tensorize_loop = loop
        self.tensorize_intrin = intrinsic

    def _annotate(self, loop: LoopVar, annotation: Annotation) -> None:
        self._check_leaf(loop)
        if loop.is_reduce and annotation == Annotation.PARALLEL:
            raise ValueError(
                "cannot parallelize a reduction loop directly; "
                "use split-reduction (rfactor) instead"
            )
        loop.annotation = annotation

    # -- verification -----------------------------------------------------
    def verify(self) -> None:
        """Check the schedule's structural invariants.

        The lowering pass calls this on every scheduled candidate, so a
        malformed schedule — duplicate or non-positive leaf loops, split /
        fuse algebra that no longer covers the parent extents, a reduce loop
        annotated parallel, or a dangling tensorize loop — is rejected
        before the candidate is lowered, costed or executed.  Raises
        :class:`ValueError` naming the offending loop.
        """
        seen = set()
        for loop in self.leaf_vars:
            if id(loop) in seen:
                raise ValueError(f"duplicate leaf loop {loop.name!r} in schedule")
            seen.add(id(loop))
            if loop.extent <= 0:
                raise ValueError(
                    f"leaf loop {loop.name!r} has non-positive extent {loop.extent}"
                )
            if loop.is_reduce and loop.annotation == Annotation.PARALLEL:
                raise ValueError(
                    f"reduce loop {loop.name!r} is annotated parallel; "
                    f"use split-reduction (rfactor) instead"
                )
        for rel in self.relations:
            if isinstance(rel, _SplitRelation):
                covered = rel.outer.extent * rel.factor
                if covered < rel.parent.extent:
                    raise ValueError(
                        f"split of {rel.parent.name!r} covers only {covered} "
                        f"of {rel.parent.extent} iterations"
                    )
                if (rel.outer.extent - 1) * rel.factor >= rel.parent.extent:
                    raise ValueError(
                        f"split of {rel.parent.name!r} overshoots: outer extent "
                        f"{rel.outer.extent} x factor {rel.factor} leaves a "
                        f"whole empty tile"
                    )
            elif isinstance(rel, _FuseRelation):
                product = rel.outer.extent * rel.inner.extent
                if rel.fused.extent != product:
                    raise ValueError(
                        f"fused loop {rel.fused.name!r} has extent "
                        f"{rel.fused.extent}, expected {product}"
                    )
        if self.tensorize_loop is not None and self.tensorize_loop not in self.leaf_vars:
            raise ValueError(
                f"tensorize loop {self.tensorize_loop.name!r} is no longer a "
                f"leaf of the schedule"
            )

    # -- reconstruction ---------------------------------------------------
    def index_expressions(self) -> Dict[Var, Expr]:
        """Express every root axis variable in terms of the leaf loop variables.

        Splits contribute ``outer * factor + inner``; fusions contribute
        ``fused // inner_extent`` and ``fused % inner_extent``.
        """
        exprs: Dict[LoopVar, Expr] = {leaf: leaf.var for leaf in self.leaf_vars}
        for rel in reversed(self.relations):
            if isinstance(rel, _SplitRelation):
                exprs[rel.parent] = exprs[rel.outer] * rel.factor + exprs[rel.inner]
            elif isinstance(rel, _FuseRelation):
                exprs[rel.outer] = exprs[rel.fused] // rel.inner.extent
                exprs[rel.inner] = exprs[rel.fused] % rel.inner.extent
        return {axis.var: exprs[loop] for axis, loop in self.root_loops.items()}

    def guards(self) -> List[Tuple[Expr, int]]:
        """Predicates required by imperfect splits.

        Each entry is ``(index_expr, bound)`` meaning the lowering must guard
        the body with ``index_expr < bound`` (TVM's ``likely`` clause).
        """
        exprs: Dict[LoopVar, Expr] = {leaf: leaf.var for leaf in self.leaf_vars}
        for rel in reversed(self.relations):
            if isinstance(rel, _SplitRelation):
                exprs[rel.parent] = exprs[rel.outer] * rel.factor + exprs[rel.inner]
            elif isinstance(rel, _FuseRelation):
                exprs[rel.outer] = exprs[rel.fused] // rel.inner.extent
                exprs[rel.inner] = exprs[rel.fused] % rel.inner.extent
        out: List[Tuple[Expr, int]] = []
        for rel in self.relations:
            if isinstance(rel, _SplitRelation) and not rel.perfect:
                out.append((exprs[rel.parent], rel.parent.extent))
        return out

    @property
    def has_imperfect_split(self) -> bool:
        return any(
            isinstance(r, _SplitRelation) and not r.perfect for r in self.relations
        )

    def data_parallel_leaves(self) -> List[LoopVar]:
        return [l for l in self.leaf_vars if not l.is_reduce]

    def __repr__(self) -> str:
        order = ", ".join(l.name for l in self.leaf_vars)
        return f"Stage({self.op.name}: [{order}])"


class Schedule:
    """A collection of stages (one per ComputeOp)."""

    def __init__(self, ops: Sequence[ComputeOp]) -> None:
        self.stages: Dict[ComputeOp, Stage] = {op: Stage(op) for op in ops}
        self.ops = list(ops)

    def __getitem__(self, op_or_tensor) -> Stage:
        op = getattr(op_or_tensor, "op", op_or_tensor)
        return self.stages[op]

    @property
    def stage(self) -> Stage:
        """The single stage, for the common one-operation case."""
        if len(self.ops) != 1:
            raise ValueError("schedule has multiple stages; index by op")
        return self.stages[self.ops[0]]


def create_schedule(op_or_tensor) -> Schedule:
    """Create a fresh (identity) schedule for a tensor operation."""
    op = getattr(op_or_tensor, "op", op_or_tensor)
    if not isinstance(op, ComputeOp):
        raise TypeError("create_schedule expects a ComputeOp or a computed tensor")
    return Schedule([op])


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)
