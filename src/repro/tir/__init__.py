"""``repro.tir`` — the imperative tensor IR.

Lowering (:func:`lower`) turns a ComputeOp plus a schedule into a
:class:`PrimFunc` whose body is a canonical loop nest.  Execution goes
through one front door — :class:`Executor`, which runs one of three tiers
(``interpreter`` / ``vectorized`` / ``native``) and applies a
:class:`ValidationPolicy`.  The scalar :class:`Interpreter` is the reference
semantics every tier is tested against.  The verifier checks structural
invariants, and the printer renders C-like listings.
"""

from .lower import PrimFunc, decompose_reduction, lower
from .engine import (
    EngineStats,
    ExecutablePlan,
    PlanStats,
    Unvectorizable,
    compile_plan,
)
from .backend import (
    NativeKernel,
    NativeUnavailable,
    TierState,
    compile_native,
    native_eligibility_reason,
    native_toolchain,
    tier_state,
)
from .executor import Executor, ValidationError, ValidationPolicy
from .sandbox import SandboxVerdict, sandbox_enabled
from .interpreter import Frame, Interpreter, alloc_buffers, random_array, run
from .plan import (
    PlanCache,
    PlanCacheStats,
    func_signature,
    func_structural_equal,
    func_structural_hash,
    plan_cache,
)
from .printer import func_to_str, stmt_to_str
from .stmt import (
    Allocate,
    AttrStmt,
    Evaluate,
    For,
    ForKind,
    IfThenElse,
    IntrinsicCall,
    OperandBinding,
    SeqStmt,
    Stmt,
    Store,
    seq,
)
from .verify import VerificationError, verify
from .visitor import StmtMutator, StmtVisitor, collect, count_nodes, walk

__all__ = [
    "PrimFunc",
    "lower",
    "decompose_reduction",
    "Interpreter",
    "run",
    "alloc_buffers",
    "random_array",
    "EngineStats",
    "Unvectorizable",
    "Executor",
    "ValidationPolicy",
    "ValidationError",
    "NativeKernel",
    "NativeUnavailable",
    "TierState",
    "compile_native",
    "native_eligibility_reason",
    "native_toolchain",
    "tier_state",
    "SandboxVerdict",
    "sandbox_enabled",
    "ExecutablePlan",
    "PlanStats",
    "compile_plan",
    "PlanCache",
    "PlanCacheStats",
    "plan_cache",
    "func_signature",
    "func_structural_hash",
    "func_structural_equal",
    "Frame",
    "func_to_str",
    "stmt_to_str",
    "ForKind",
    "Stmt",
    "For",
    "Store",
    "SeqStmt",
    "IfThenElse",
    "AttrStmt",
    "Allocate",
    "Evaluate",
    "OperandBinding",
    "IntrinsicCall",
    "seq",
    "VerificationError",
    "verify",
    "StmtVisitor",
    "StmtMutator",
    "walk",
    "collect",
    "count_nodes",
]
