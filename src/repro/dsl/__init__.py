"""``repro.dsl`` — the tensor domain-specific language.

This subpackage is the stand-in for TVM's tensor expression DSL: declare
placeholder tensors, loop and reduce axes, and computed tensors whose bodies
are expression trees.  The Inspector and Rewriter of UNIT operate on the
:class:`~repro.dsl.compute.ComputeOp` data structure produced here.

The expression node set is closed: ``Const``, ``Var``, ``Cast``, the seven
``BinaryOp``s, ``Compare``, ``Select``, ``TensorLoad`` and ``Reduce``.  All
but ``Reduce`` are also the expression language of lowered tensor IR
(:data:`repro.analysis.structure.TIR_EXPR_KINDS`).
"""

from .axis import AxisKind, IterAxis, loop_axis, reduce_axis
from .compute import ComputeOp, Operation, PlaceholderOp, compute
from .dtype import (
    DType,
    bool_,
    float16,
    float32,
    float64,
    from_string,
    int16,
    int32,
    int64,
    int8,
    uint16,
    uint8,
)
from .expr import (
    Add,
    BinaryOp,
    Cast,
    Compare,
    Const,
    Expr,
    FloorDiv,
    Max,
    Min,
    Mod,
    Mul,
    Reduce,
    Select,
    Sub,
    TensorLoad,
    Var,
    arith_signature,
    clear_expr_caches,
    expr_cache_epoch,
    as_expr,
    cast,
    const,
    expr_cache_stats,
    expr_key,
    extract_linear,
    free_vars,
    max_reduce,
    min_reduce,
    post_order,
    reset_expr_cache_stats,
    simplify,
    structural_equal,
    substitute,
    sum_reduce,
    tensors_referenced,
)
from .printer import expr_to_str, op_to_str
from .tensor import Tensor, placeholder, tensor

__all__ = [
    # dtype
    "DType",
    "int8",
    "uint8",
    "int16",
    "uint16",
    "int32",
    "int64",
    "float16",
    "float32",
    "float64",
    "bool_",
    "from_string",
    # expr
    "Expr",
    "Var",
    "Const",
    "Cast",
    "BinaryOp",
    "Add",
    "Sub",
    "Mul",
    "FloorDiv",
    "Mod",
    "Min",
    "Max",
    "Compare",
    "Select",
    "TensorLoad",
    "Reduce",
    "const",
    "as_expr",
    "cast",
    "sum_reduce",
    "max_reduce",
    "min_reduce",
    "post_order",
    "free_vars",
    "tensors_referenced",
    "expr_key",
    "arith_signature",
    "structural_equal",
    "substitute",
    "simplify",
    "extract_linear",
    "expr_cache_stats",
    "reset_expr_cache_stats",
    "expr_cache_epoch",
    "clear_expr_caches",
    # axis
    "AxisKind",
    "IterAxis",
    "loop_axis",
    "reduce_axis",
    # tensor
    "Tensor",
    "placeholder",
    "tensor",
    # compute
    "Operation",
    "PlaceholderOp",
    "ComputeOp",
    "compute",
    # printer
    "expr_to_str",
    "op_to_str",
]
