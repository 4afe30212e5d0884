"""``repro.tir`` — the imperative tensor IR.

Lowering (:func:`lower`) turns a ComputeOp plus a schedule into a
:class:`PrimFunc` whose body is a canonical loop nest.  Execution goes
through one front door — :class:`Executor`, which runs one of three tiers
(``interpreter`` / ``vectorized`` / ``native``) and applies a
:class:`ValidationPolicy`.  The scalar :class:`Interpreter` is the reference
semantics every tier is tested against.  The printer renders C-like
listings.

A ``PrimFunc`` body is written in one small language — statements ``For``,
``SeqStmt``, ``IfThenElse``, ``AttrStmt``, ``Allocate``, ``Store``,
``IntrinsicCall``; expressions from
:data:`repro.analysis.structure.TIR_EXPR_KINDS` — which :func:`verify`
(``repro.analysis.structure.verify_structure``) enforces and every tier
implements exactly.  ``Reduce`` belongs to the DSL and to instruction
descriptions; :func:`lower` never leaves one in a function body.
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
    func_key,
    func_signature,
    func_structural_equal,
    func_structural_hash,
    plan_cache,
)
from .printer import func_to_str, stmt_to_str
from .stmt import (
    Allocate,
    AttrStmt,
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
from .visitor import StmtMutator, collect, count_nodes, walk
from ..analysis.structure import VerificationError, verify_structure as verify

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
    "func_key",
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
    "OperandBinding",
    "IntrinsicCall",
    "seq",
    "VerificationError",
    "verify",
    "StmtMutator",
    "walk",
    "collect",
    "count_nodes",
]
