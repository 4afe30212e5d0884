"""Human-readable printing of DSL expressions and operations.

Used for debugging, error messages, and the ``__repr__`` of expression nodes.
The format intentionally mirrors the listings in the paper, e.g.
``c[i] + sum(i32(a[i*4 + j])*i32(b[i*4 + j]), j)``.
"""

from __future__ import annotations

from . import expr as E

__all__ = ["expr_to_str", "op_to_str"]

_SHORT_DTYPE = {
    "int8": "i8",
    "uint8": "u8",
    "int16": "i16",
    "uint16": "u16",
    "int32": "i32",
    "int64": "i64",
    "float16": "fp16",
    "float32": "fp32",
    "float64": "fp64",
    "bool": "bool",
}


def _short(dtype) -> str:
    return _SHORT_DTYPE.get(dtype.name, dtype.name)


def expr_to_str(expr: "E.Expr") -> str:
    """Render an expression in DSL-like syntax."""
    if isinstance(expr, E.Var):
        return expr.name
    if isinstance(expr, E.Const):
        return str(expr.value)
    if isinstance(expr, E.Cast):
        return f"{_short(expr.dtype)}({expr_to_str(expr.value)})"
    if isinstance(expr, E.BinaryOp):
        if expr.opcode in ("min", "max"):
            return f"{expr.opcode}({expr_to_str(expr.a)}, {expr_to_str(expr.b)})"
        return f"({expr_to_str(expr.a)} {expr.opcode} {expr_to_str(expr.b)})"
    if isinstance(expr, E.Compare):
        return f"({expr_to_str(expr.a)} {expr.op} {expr_to_str(expr.b)})"
    if isinstance(expr, E.Select):
        return (
            f"select({expr_to_str(expr.cond)}, {expr_to_str(expr.true_value)}, "
            f"{expr_to_str(expr.false_value)})"
        )
    if isinstance(expr, E.TensorLoad):
        idx = ", ".join(expr_to_str(i) for i in expr.indices)
        return f"{expr.tensor.name}[{idx}]"
    if isinstance(expr, E.Reduce):
        axes = ", ".join(ax.name for ax in expr.axes)
        return f"{expr.combiner}({expr_to_str(expr.source)}, [{axes}])"
    return object.__repr__(expr)


def op_to_str(op) -> str:
    """Render a ComputeOp as an assignment statement like the paper's listings."""
    from .compute import ComputeOp

    if not isinstance(op, ComputeOp):
        return repr(op)
    indices = ", ".join(ax.name for ax in op.axes)
    assign = "+=" if op.accumulate else "="
    header_lines = []
    for t in op.input_tensors:
        header_lines.append(
            f"{t.name} = tensor({t.shape}, {_short(t.dtype)})"
        )
    for ax in op.axes:
        header_lines.append(f"{ax.name} = loop_axis(0, {ax.extent})")
    for ax in op.reduce_axes:
        header_lines.append(f"{ax.name} = reduce_axis(0, {ax.extent})")
    body = f"{op.output.name}[{indices}] {assign} {expr_to_str(op.body)}"
    return "\n".join(header_lines + [body])
