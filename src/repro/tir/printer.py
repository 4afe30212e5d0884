"""Textual rendering of tensor-IR programs (C-like pseudo code).

The printed form matches the style of the paper's Figure 5(c)/7 listings:
``for`` / ``parallel for`` / ``unrolled for`` loops, pragma annotations, and
tensorized-instruction calls.
"""

from __future__ import annotations

from ..dsl.printer import expr_to_str
from .stmt import (
    Allocate,
    AttrStmt,
    For,
    ForKind,
    IfThenElse,
    IntrinsicCall,
    SeqStmt,
    Stmt,
    Store,
)

__all__ = ["stmt_to_str", "func_to_str"]

_KIND_PREFIX = {
    ForKind.SERIAL: "for",
    ForKind.PARALLEL: "parallel for",
    ForKind.UNROLL: "unrolled for",
    ForKind.VECTORIZE: "vectorized for",
    ForKind.TENSORIZE: "tensorized for",
    ForKind.THREAD_BINDING: "bound for",
}


def stmt_to_str(stmt: Stmt, indent: int = 0) -> str:
    """Render one statement subtree."""
    pad = "  " * indent
    if isinstance(stmt, For):
        prefix = _KIND_PREFIX[stmt.kind]
        tag = f" /* {stmt.thread_tag} */" if stmt.thread_tag else ""
        pragma = ""
        if stmt.pragmas:
            keys = ", ".join(f"{k}={v}" for k, v in sorted(stmt.pragmas.items()))
            pragma = f"{pad}#pragma {keys}\n"
        header = f"{pad}{prefix} ({stmt.var.name} = 0; {stmt.var.name} < {stmt.extent}; ++{stmt.var.name}){tag} {{\n"
        body = stmt_to_str(stmt.body, indent + 1)
        return f"{pragma}{header}{body}\n{pad}}}"
    if isinstance(stmt, Store):
        idx = ", ".join(expr_to_str(i) for i in stmt.indices)
        return f"{pad}{stmt.tensor.name}[{idx}] = {expr_to_str(stmt.value)};"
    if isinstance(stmt, SeqStmt):
        return "\n".join(stmt_to_str(s, indent) for s in stmt.stmts)
    if isinstance(stmt, IfThenElse):
        cond = expr_to_str(stmt.condition)
        like = "likely" if stmt.likely else "if"
        out = f"{pad}{like} ({cond}) {{\n{stmt_to_str(stmt.then_case, indent + 1)}\n{pad}}}"
        if stmt.else_case is not None:
            out += f" else {{\n{stmt_to_str(stmt.else_case, indent + 1)}\n{pad}}}"
        return out
    if isinstance(stmt, AttrStmt):
        return f"{pad}// attr [{stmt.key}] = {stmt.value}\n" + stmt_to_str(stmt.body, indent)
    if isinstance(stmt, Allocate):
        shape = "x".join(str(s) for s in stmt.tensor.shape)
        head = (
            f"{pad}allocate {stmt.tensor.name}[{shape}] "
            f"({stmt.tensor.dtype.name}, scope={stmt.scope});"
        )
        return head + "\n" + stmt_to_str(stmt.body, indent)
    if isinstance(stmt, IntrinsicCall):
        dst = stmt.output
        dst_idx = ", ".join(expr_to_str(i) for i in dst.program_indices)
        srcs = []
        for binding in stmt.inputs:
            idx = ", ".join(expr_to_str(i) for i in binding.program_indices)
            srcs.append(f"{binding.program_tensor.name}[{idx}]")
        return (
            f"{pad}{dst.program_tensor.name}[{dst_idx}] = "
            f"{stmt.intrin.name}({', '.join(srcs)});"
        )
    return f"{pad}{stmt!s}"


def func_to_str(func) -> str:
    """Render a PrimFunc with its signature."""
    params = ", ".join(
        f"{t.dtype.name} {t.name}[{'x'.join(str(s) for s in t.shape)}]" for t in func.params
    )
    return f"func {func.name}({params}) {{\n{stmt_to_str(func.body, 1)}\n}}"
