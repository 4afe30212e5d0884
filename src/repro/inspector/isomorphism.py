"""Arithmetic isomorphism between expression trees (Algorithm 1).

The Inspector's first step checks that (part of) the tensor operation is
*arithmetically equivalent* to the tensorized instruction: the two expression
trees must have the same topology, the same opcodes, and the same data type at
every node.  Leaves bind instruction registers to operation data sources, with
the constraint that one register cannot correspond to two different sources.

Both programs are first normalised into their *update form*:
``output[axes] = accumulator + elementwise_expression`` — the form drawn in
Figure 5(b).1 — so VNNI-style descriptions (separate init register ``c``) and
Tensor Core-style descriptions (``+=``) are matched uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dsl.compute import ComputeOp
from ..dsl.expr import (
    Add,
    BinaryOp,
    Cast,
    Const,
    Expr,
    Max,
    Min,
    Reduce,
    TensorLoad,
    arith_signature,
)
from ..dsl.tensor import Tensor

__all__ = ["UpdateForm", "update_form", "IsomorphismResult", "match_isomorphism"]


@dataclass
class UpdateForm:
    """The normalised "update statement" view of a tensor operation."""

    op: ComputeOp
    store: TensorLoad  # the written element, as a load-like reference
    value: Expr  # the right-hand side of the update


def update_form(op: ComputeOp) -> UpdateForm:
    """Normalise ``op`` into its update form.

    For a reduction ``out[...] = rest + sum(src)`` the update is
    ``out[...] = rest + src`` when an explicit accumulator expression ``rest``
    is present (the VNNI/DOT descriptions), and ``out[...] = out[...] + src``
    otherwise (ordinary compute definitions and ``+=`` accumulate operations).
    Operations without any reduction keep their body unchanged.
    """
    store = TensorLoad(op.output, [ax.var for ax in op.axes])
    body = op.body

    reduce_node, rest = _split_reduce(body)
    if reduce_node is None:
        if op.accumulate:
            return UpdateForm(op, store, Add(store, body))
        return UpdateForm(op, store, body)
    if reduce_node.combiner != "sum":
        # Horizontal max/min reductions exist (pooling) but no evaluated
        # tensorized instruction computes them; keep the form anyway.
        combiner_cls = {"max": Max, "min": Min}[reduce_node.combiner]
        return UpdateForm(op, store, combiner_cls(store, reduce_node.source))
    accumulator: Expr = rest if rest is not None and not op.accumulate else store
    if op.accumulate:
        accumulator = store
    return UpdateForm(op, store, Add(accumulator, reduce_node.source))


def _split_reduce(body: Expr) -> Tuple[Optional[Reduce], Optional[Expr]]:
    if isinstance(body, Reduce):
        return body, None
    if isinstance(body, Add):
        if isinstance(body.b, Reduce):
            return body.b, body.a
        if isinstance(body.a, Reduce):
            return body.a, body.b
    return None, None


@dataclass
class IsomorphismResult:
    """Outcome of Algorithm 1.

    Attributes
    ----------
    matched:
        Whether the two trees are arithmetically isomorphic.
    register_bindings:
        Instruction register tensor → operation tensor (or constant value).
    load_pairs:
        ``(instruction_load, operation_load)`` pairs for every matched leaf,
        including the pair of store targets.  These feed the array-access
        isomorphism check and, later, the operand-generation rules.
    reason:
        Human-readable explanation when the match fails.
    """

    matched: bool
    register_bindings: Dict[Tensor, object] = field(default_factory=dict)
    load_pairs: List[Tuple[TensorLoad, TensorLoad]] = field(default_factory=list)
    reason: str = ""


def match_isomorphism(instr_op: ComputeOp, prog_op: ComputeOp) -> IsomorphismResult:
    """Run Algorithm 1 on the instruction and program update forms."""
    instr = update_form(instr_op)
    prog = update_form(prog_op)

    result = IsomorphismResult(matched=False)

    # The store targets must agree in dtype and also bind the destination
    # register to the program's output buffer.
    if instr.store.dtype != prog.store.dtype:
        result.reason = (
            f"output dtype mismatch: instruction accumulates in "
            f"{instr.store.dtype.name}, operation in {prog.store.dtype.name}"
        )
        return result
    # O(1) reject fast-path: the cached arithmetic signature folds exactly
    # the topology/dtype/opcode properties the recursive match requires, so
    # differing signatures can never match.  This is what lets the Inspector
    # scan a whole instruction registry without re-walking the program tree.
    if arith_signature(instr.value) != arith_signature(prog.value):
        result.reason = (
            "arithmetic signature mismatch (tree topology, dtype or opcode)"
        )
        return result

    bindings: Dict[Tensor, object] = {}
    load_pairs: List[Tuple[TensorLoad, TensorLoad]] = []
    _bind_leaf(instr.store, prog.store, bindings, load_pairs)

    ok, reason = _inspect(instr.value, prog.value, bindings, load_pairs)
    if not ok:
        result.reason = reason
        return result

    return IsomorphismResult(True, bindings, load_pairs, "")


def _inspect(
    a: Expr,
    b: Expr,
    bindings: Dict[Tensor, object],
    load_pairs: List[Tuple[TensorLoad, TensorLoad]],
) -> Tuple[bool, str]:
    """The recursive core of Algorithm 1.

    ``a`` comes from the instruction, ``b`` from the operation.
    """
    if a.dtype != b.dtype:
        return False, f"dtype mismatch: {a.dtype.name} vs {b.dtype.name}"

    a_leaf, b_leaf = _is_leaf(a), _is_leaf(b)
    if a_leaf and b_leaf:
        return _match_leaves(a, b, bindings, load_pairs)
    if a_leaf != b_leaf:
        return False, "tree topology mismatch (leaf vs non-leaf)"

    if isinstance(a, Cast) and isinstance(b, Cast):  # same target: dtypes agree
        return _inspect(a.value, b.value, bindings, load_pairs)
    if isinstance(a, BinaryOp) and isinstance(b, BinaryOp):
        if a.opcode != b.opcode:
            return False, f"opcode mismatch: {a.opcode} vs {b.opcode}"
        ok, reason = _inspect(a.a, b.a, bindings, load_pairs)
        if not ok:
            return False, reason
        return _inspect(a.b, b.b, bindings, load_pairs)
    return False, (
        f"unsupported/unequal node kinds: {type(a).__name__} vs {type(b).__name__}"
    )


def _is_leaf(expr: Expr) -> bool:
    return isinstance(expr, (TensorLoad, Const))


def _match_leaves(
    a: Expr,
    b: Expr,
    bindings: Dict[Tensor, object],
    load_pairs: List[Tuple[TensorLoad, TensorLoad]],
) -> Tuple[bool, str]:
    if isinstance(a, Const):
        # A constant in the instruction description must match an identical
        # constant in the program (rare; e.g. fixed shift amounts).
        if isinstance(b, Const) and b.value == a.value:
            return True, ""
        return False, "instruction constant does not match operation leaf"
    assert isinstance(a, TensorLoad)
    if isinstance(b, Const):
        # A register operand fed by a program constant: allowed, the register
        # simply corresponds to that constant (Section III-B.2 footnote).
        bound = bindings.get(a.tensor)
        if bound is None:
            bindings[a.tensor] = ("const", b.value)
            return True, ""
        if bound == ("const", b.value):
            return True, ""
        return False, (
            f"register {a.tensor.name!r} already bound to {bound!r}, "
            f"cannot also be constant {b.value!r}"
        )
    return _bind_leaf(a, b, bindings, load_pairs)


def _bind_leaf(
    a: TensorLoad,
    b: TensorLoad,
    bindings: Dict[Tensor, object],
    load_pairs: List[Tuple[TensorLoad, TensorLoad]],
) -> Tuple[bool, str]:
    bound = bindings.get(a.tensor)
    if bound is None:
        bindings[a.tensor] = b.tensor
    elif bound is not b.tensor:
        return False, (
            f"register {a.tensor.name!r} corresponds to multiple data sources "
            f"({getattr(bound, 'name', bound)!r} and {b.tensor.name!r})"
        )
    load_pairs.append((a, b))
    return True, ""
