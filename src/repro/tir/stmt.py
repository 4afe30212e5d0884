"""Tensor IR statement nodes.

The tensor IR is an imperative loop program with two constraints inherited
from the paper (Section II-C.3): all loops are canonical (start at 0, step 1)
and all buffers are restrict (an element is only accessible through one
tensor).  It is produced by lowering a ComputeOp + Schedule and consumed by
the tensorize replacement pass, the interpreter, the codegen, and the cost
models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..dsl.expr import Expr, Var, as_expr
from ..dsl.tensor import Tensor

__all__ = [
    "ForKind",
    "Stmt",
    "For",
    "Store",
    "SeqStmt",
    "IfThenElse",
    "AttrStmt",
    "Allocate",
    "OperandBinding",
    "IntrinsicCall",
    "seq",
]


class ForKind(Enum):
    """How a loop is executed by the target."""

    SERIAL = "serial"
    PARALLEL = "parallel"
    UNROLL = "unroll"
    VECTORIZE = "vectorize"
    TENSORIZE = "tensorize"
    THREAD_BINDING = "thread_binding"


class Stmt:
    """Base class of all tensor-IR statements."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .printer import stmt_to_str

        return stmt_to_str(self)


class For(Stmt):
    """A canonical loop: ``for var in range(extent): body``."""

    def __init__(
        self,
        var: Var,
        extent: int,
        body: Stmt,
        kind: ForKind = ForKind.SERIAL,
        thread_tag: Optional[str] = None,
        pragmas: Optional[Dict[str, object]] = None,
    ) -> None:
        self.var = var
        self.extent = int(extent)
        self.body = body
        self.kind = kind
        self.thread_tag = thread_tag
        self.pragmas = dict(pragmas or {})
        if self.extent <= 0:
            raise ValueError(f"loop extent must be positive, got {extent}")
        if kind == ForKind.THREAD_BINDING and not thread_tag:
            raise ValueError("thread-bound loop requires a thread tag")


class Store(Stmt):
    """``tensor[indices] = value``."""

    def __init__(self, tensor: Tensor, indices: Sequence, value: Expr) -> None:
        self.tensor = tensor
        self.indices = tuple(as_expr(i) for i in indices)
        self.value = value
        if len(self.indices) != tensor.ndim:
            raise ValueError(
                f"store into {tensor.name!r}: expected {tensor.ndim} indices, "
                f"got {len(self.indices)}"
            )


class SeqStmt(Stmt):
    """A sequence of statements executed in order."""

    def __init__(self, stmts: Sequence[Stmt]) -> None:
        flat: List[Stmt] = []
        for s in stmts:
            if isinstance(s, SeqStmt):
                flat.extend(s.stmts)
            elif s is not None:
                flat.append(s)
        self.stmts = tuple(flat)


class IfThenElse(Stmt):
    """A conditional; ``likely`` marks residue guards from imperfect splits."""

    def __init__(
        self,
        condition: Expr,
        then_case: Stmt,
        else_case: Optional[Stmt] = None,
        likely: bool = False,
    ) -> None:
        self.condition = condition
        self.then_case = then_case
        self.else_case = else_case
        self.likely = bool(likely)


class AttrStmt(Stmt):
    """An attribute/pragma scope wrapping a statement.

    The Rewriter uses ``AttrStmt("pragma_tensorize", <intrinsic name>, body)``
    to mark the loop nest that must be replaced by the tensorized instruction.
    """

    def __init__(self, key: str, value, body: Stmt) -> None:
        self.key = key
        self.value = value
        self.body = body


class Allocate(Stmt):
    """Allocation of a temporary buffer visible inside ``body``."""

    def __init__(self, tensor: Tensor, body: Stmt, scope: str = "global") -> None:
        self.tensor = tensor
        self.body = body
        self.scope = scope


@dataclass
class OperandBinding:
    """Correspondence between one intrinsic operand and the program's buffer.

    ``intrin_indices`` index the intrinsic's register-tensor as written in its
    DSL description (over the intrinsic's own loop variables);
    ``program_indices`` index the real program buffer (over the intrinsic loop
    variables *and* the enclosing program loop variables).  Together they say,
    lane by lane, which memory address feeds which register lane — this is the
    operand-generation rule of Section III-C.2.
    """

    intrin_tensor: Tensor
    intrin_indices: Tuple[Expr, ...]
    program_tensor: Tensor
    program_indices: Tuple[Expr, ...]


class IntrinsicCall(Stmt):
    """A call to a tensorized instruction, after the replacement pass.

    Attributes
    ----------
    intrin:
        The :class:`repro.isa.TensorIntrinsic` being invoked.
    inputs:
        Operand bindings for the intrinsic's source registers.
    output:
        Operand binding for the destination register.
    axes:
        The intrinsic's own iteration axes (from its DSL description); the
        binding index expressions are written over these axes' variables.
    reads_output:
        Whether the destination also acts as an accumulator source (always
        true for the mixed-precision dot-product instructions).
    """

    def __init__(
        self,
        intrin,
        inputs: Sequence[OperandBinding],
        output: OperandBinding,
        axes: Sequence,
        reads_output: bool = True,
    ) -> None:
        self.intrin = intrin
        self.inputs = list(inputs)
        self.output = output
        self.axes = list(axes)
        self.reads_output = reads_output


def seq(*stmts: Stmt) -> Stmt:
    """Build a sequence, collapsing singletons."""
    items = [s for s in stmts if s is not None]
    if len(items) == 1:
        return items[0]
    return SeqStmt(items)
