"""Low-level code generation: tensor IR → a virtual vector ISA.

The paper's pipeline hands the transformed tensor IR to LLVM for machine-code
generation (Section II-C.4).  In this reproduction the "machine" is the
analytical simulator, so code generation targets a small *virtual vector ISA*:
a textual, register-based program whose instructions are scalar ALU ops,
vector loads/stores/broadcasts, and the tensorized intrinsics themselves.  It
exists for three reasons:

* it demonstrates that the rewritten tensor IR is fully lowerable (every
  operand-generation rule materialises into loads/broadcasts/concatenations);
* it provides instruction statistics (tensorized ops, loads, loop overhead)
  that can be cross-checked against the analytical cost models;
* it renders readable "assembly" listings for the examples and docs.

:func:`generate_c`, the second half, lowers a ``PrimFunc`` to executable C;
which nests it may emit as accumulator tiles is read off the shared
loop-nest reading (:class:`repro.tir.visitor.Nest`), not matched here.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.interval import Interval, axis_strides, expr_interval, loop_env, row_major_strides
from ..analysis.overlap import indices_disjoint
from ..analysis.structure import TIR_EXPR_KINDS
from ..dsl import expr as E
from ..dsl.dtype import DType, from_string
from ..dsl.printer import expr_to_str
from ..tir.lower import PrimFunc
from ..tir.stmt import (
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
from ..tir.visitor import accumulation_form, read_nest, same_index, walk

__all__ = [
    "Instruction",
    "CodegenResult",
    "generate",
    "REGISTER_PREFIX",
    "LoweringError",
    "NativeSource",
    "generate_c",
    "native_support_reason",
]

REGISTER_PREFIX = {
    "x86": "zmm",
    "arm": "v",
    "cuda": "frag",
    "generic": "r",
}


@dataclass
class Instruction:
    """One virtual-ISA instruction."""

    opcode: str
    operands: List[str] = field(default_factory=list)
    comment: str = ""

    def render(self) -> str:
        # The conditional must select only the operand suffix: spelled as one
        # ternary the condition binds the whole concatenation, which is easy
        # to regress into a trailing-space (or operand-dropping) rendering for
        # zero-operand opcodes like ``.else``/``.endif``.
        if self.operands:
            text = f"{self.opcode} " + ", ".join(self.operands)
        else:
            text = self.opcode
        if self.comment:
            text = f"{text:<60s} ; {self.comment}"
        return text


@dataclass
class CodegenResult:
    """The emitted program plus summary statistics."""

    func_name: str
    target: str
    instructions: List[Instruction] = field(default_factory=list)

    @property
    def text(self) -> str:
        lines = [f".func {self.func_name} (target={self.target})"]
        indent = 1
        for instr in self.instructions:
            if instr.opcode in (".endloop", ".endif"):
                indent -= 1
            lines.append("  " * indent + instr.render())
            if instr.opcode in (".loop", ".parallel_loop", ".unrolled_loop", ".if"):
                indent += 1
        lines.append(".endfunc")
        return "\n".join(lines)

    @property
    def stats(self) -> Dict[str, int]:
        counts: Dict[str, int] = {
            "tensorized": 0,
            "vector_load": 0,
            "vector_store": 0,
            "broadcast": 0,
            "scalar_store": 0,
            "loops": 0,
            "guards": 0,
        }
        for instr in self.instructions:
            if instr.opcode.startswith("tensor."):
                counts["tensorized"] += 1
            elif instr.opcode == "vload":
                counts["vector_load"] += 1
            elif instr.opcode == "vstore":
                counts["vector_store"] += 1
            elif instr.opcode == "vbcast":
                counts["broadcast"] += 1
            elif instr.opcode == "store":
                counts["scalar_store"] += 1
            elif instr.opcode in (".loop", ".parallel_loop", ".unrolled_loop"):
                counts["loops"] += 1
            elif instr.opcode == ".if":
                counts["guards"] += 1
        return counts

    @property
    def dynamic_stats(self) -> Dict[str, int]:
        """Dynamic instruction counts: each instruction weighted by the
        product of its enclosing static loop extents.

        This is the executed-instruction count of the listing (``likely``
        residue guards are *not* folded — guarded-off iterations still issue
        their instructions, exactly as the cost models charge them), which is
        what the analytical cost models' ``instructions`` detail can be
        cross-checked against.
        """
        counts: Dict[str, int] = {
            "tensorized": 0,
            "vector_load": 0,
            "vector_store": 0,
            "broadcast": 0,
            "scalar_store": 0,
            "loop_iterations": 0,
        }
        trip = 1
        stack: List[int] = []
        for instr in self.instructions:
            if instr.opcode in (".loop", ".parallel_loop", ".unrolled_loop"):
                extent = int(instr.operands[1])
                stack.append(extent)
                trip *= extent
                counts["loop_iterations"] += trip
            elif instr.opcode == ".endloop":
                trip //= stack.pop()
            elif instr.opcode.startswith("tensor."):
                counts["tensorized"] += trip
            elif instr.opcode == "vload":
                counts["vector_load"] += trip
            elif instr.opcode == "vstore":
                counts["vector_store"] += trip
            elif instr.opcode == "vbcast":
                counts["broadcast"] += trip
            elif instr.opcode == "store":
                counts["scalar_store"] += trip
        return counts


class _Emitter:
    def __init__(self, target: str) -> None:
        self.target = target
        self.prefix = REGISTER_PREFIX.get(target, REGISTER_PREFIX["generic"])
        self.instructions: List[Instruction] = []
        self._next_register = 0

    def fresh_register(self) -> str:
        name = f"{self.prefix}{self._next_register}"
        self._next_register += 1
        return name

    def emit(self, opcode: str, operands: Optional[List[str]] = None, comment: str = "") -> None:
        self.instructions.append(Instruction(opcode, operands or [], comment))

    # -- statements ---------------------------------------------------------
    def visit(self, stmt: Stmt) -> None:
        if isinstance(stmt, SeqStmt):
            for s in stmt.stmts:
                self.visit(s)
        elif isinstance(stmt, For):
            opcode = {
                ForKind.PARALLEL: ".parallel_loop",
                ForKind.UNROLL: ".unrolled_loop",
            }.get(stmt.kind, ".loop")
            tag = f" bound={stmt.thread_tag}" if stmt.thread_tag else ""
            self.emit(opcode, [stmt.var.name, str(stmt.extent)], comment=stmt.kind.value + tag)
            self.visit(stmt.body)
            self.emit(".endloop", [stmt.var.name])
        elif isinstance(stmt, IfThenElse):
            self.emit(".if", [expr_to_str(stmt.condition)],
                      comment="likely residue guard" if stmt.likely else "")
            self.visit(stmt.then_case)
            if stmt.else_case is not None:
                self.emit(".else")
                self.visit(stmt.else_case)
            self.emit(".endif")
        elif isinstance(stmt, AttrStmt):
            self.emit(".attr", [stmt.key, str(stmt.value)])
            self.visit(stmt.body)
        elif isinstance(stmt, Allocate):
            shape = "x".join(str(s) for s in stmt.tensor.shape)
            self.emit("alloca", [stmt.tensor.name, shape, stmt.tensor.dtype.name],
                      comment=f"scope={stmt.scope}")
            self.visit(stmt.body)
        elif isinstance(stmt, Store):
            value = self._scalar(stmt.value)
            address = self._address(stmt.tensor.name, stmt.indices)
            self.emit("store", [address, value], comment=f"{stmt.tensor.dtype.name}")
        elif isinstance(stmt, IntrinsicCall):
            self._emit_intrinsic(stmt)
        else:
            raise TypeError(f"cannot generate code for {type(stmt).__name__}")

    # -- intrinsic operand materialisation -----------------------------------
    def _emit_intrinsic(self, call: IntrinsicCall) -> None:
        intrin = call.intrin
        intrin_axis_vars = {ax.var for ax in call.axes}
        registers: List[str] = []
        for binding in call.inputs:
            reg = self.fresh_register()
            varying = set()
            for idx in binding.program_indices:
                varying.update(v for v in E.free_vars(idx) if v in intrin_axis_vars)
            address = self._address(binding.program_tensor.name, binding.program_indices)
            lanes = binding.intrin_tensor.num_elements
            if not varying:
                self.emit("vbcast", [reg, address, str(lanes)],
                          comment=f"{binding.intrin_tensor.name}: broadcast to {lanes} lanes")
            else:
                self.emit("vload", [reg, address, str(lanes)],
                          comment=f"{binding.intrin_tensor.name}: gather over "
                                  + ",".join(sorted(v.name for v in varying)))
            registers.append(reg)
        dst = self.fresh_register()
        self.emit(f"tensor.{intrin.name}", [dst] + registers,
                  comment=f"{intrin.macs_per_call} MACs")
        out_address = self._address(call.output.program_tensor.name, call.output.program_indices)
        self.emit("vstore", [out_address, dst, str(call.output.intrin_tensor.num_elements)])

    # -- scalars ---------------------------------------------------------------
    def _scalar(self, value: E.Expr) -> str:
        return expr_to_str(value)

    def _address(self, buffer: str, indices) -> str:
        return f"{buffer}[" + ", ".join(expr_to_str(i) for i in indices) + "]"


def generate(func: PrimFunc, target: str = "generic") -> CodegenResult:
    """Generate virtual-ISA code for a lowered (and possibly tensorized) function."""
    emitter = _Emitter(target)
    emitter.visit(func.body)
    return CodegenResult(func_name=func.name, target=target, instructions=emitter.instructions)


# ---------------------------------------------------------------------------
# Native source generation (the "LLVM step" of the paper, Section II-C.4).
#
# The emitter below lowers a tensorized PrimFunc all the way to *executable*
# C source (compiled by the host toolchain, loaded through ctypes).  It mirrors
# the scalar interpreter's semantics bit for bit:
#
# * index expressions are evaluated the way the interpreter evaluates them —
#   over Python ints, i.e. effectively unbounded integers.  In C these render
#   as ``int64_t`` arithmetic with *no* per-node truncation (all in-bounds
#   index math fits in 64 bits).
# * value expressions follow numpy's NEP-50 promotion: Python-literal
#   constants and loop variables are "weak", tensor loads and casts are
#   "strong" (carry a concrete dtype), and every strong binary op truncates
#   to the promoted dtype.  In C this renders as a cast on every node so that
#   e.g. int8 adds wrap exactly like ``np.int8 + np.int8``.
# * reductions fold sequentially in source order starting from zero — the
#   exact fold order the interpreter's ``sum(values)`` performs — so float
#   results are bit-identical (compile with ``-ffp-contract=off``; no FMA
#   contraction, no reassociation).
# * a reduction-update nest (``out[i] = out[i] ⊕ e`` under reduction loops
#   under data-parallel loops) keeps that order *per output element* but folds
#   a small tile of elements side by side: the tile is loaded into a local
#   accumulator array, the reduction loops run in their original order with
#   the tile innermost, and the tile is stored back.  The accumulators are
#   independent chains, so the compiler can unroll and vectorise across them
#   without reassociating anything.
# * an intrinsic call is emitted as the hardware instruction itself, spelled
#   by the instruction's ``NativeLowering``: one vector value per operand
#   register, the vendor intrinsic, one store.  An instruction without a
#   lowering is refused (``_intrinsic_native_reason``), and so is anything but
#   an order-free integer dot product, so the instruction agrees with the
#   interpreter bit for bit.  The source is the same on every host; whether
#   this host's compiler may build it (defines the lowering's feature macro)
#   is ``repro.tir.backend``'s question, asked before promotion.
# * the band the CPU schedule puts under its outer loops — reduction loops,
#   then data-parallel loops unrolled so independent calls hide the
#   instruction's latency, then one call — keeps its accumulators in
#   registers: one ``load`` per inner point into a local array of
#   ``vector_type`` before the reduction loops, the instruction on that
#   point's register inside them (in their original order), one ``store``
#   per point after.  Only a band whose output blocks stay put across the
#   reduction loops and are disjoint across the inner points, with a
#   ``contiguous`` accumulator read at the output's own address, and at most
#   ``_MAX_REGISTER_TILE`` registers, is emitted so; every other call keeps
#   its own load and store.
# * one loop per nest runs across threads: the outermost loop whose
#   iterations provably write disjoint outputs and read nothing another
#   iteration writes.  That is the outermost tile loop of a reduction-update
#   nest (``_reduction_nest`` has proved its store injective), or the
#   outermost loop of a nest ending in one plain store or one instruction
#   call — the schedule's fused ``parallel`` loop over a tensorized band,
#   the init nest before it — whose writes the overlap analysis proves
#   disjoint (``_disjoint_iterations``).  The loop's body becomes a static
#   function (``repro_partN``), and ``repro_for`` runs the iterations in
#   contiguous shares on the thread pool the entry point gets as its first
#   argument (``repro.tir.backend``'s; NULL runs them serially).  Each
#   output element is still written by one thread in its own fold order, so
#   the bytes do not depend on the thread count.  Every other loop, and
#   every loop inside a threaded one, is emitted serially.  (An init nest
#   threaded like the nest after it leaves each thread's outputs in that
#   thread's cache; a division of a provably non-negative index is plain C
#   ``/``, which the compiler folds where ``repro_fdiv`` would stay a call.)
# ---------------------------------------------------------------------------


class LoweringError(Exception):
    """A function (or one of its nests) cannot be lowered to native code."""


@dataclass(frozen=True)
class NativeSource:
    """Generated C source for one PrimFunc (compile with a C toolchain, call
    through ctypes).

    ``params`` records the buffer order of the entry point — identical to
    ``func.params``.  ``instructions`` names the hardware instructions the
    source executes (e.g. ``("vpdpbusd",)``; ``()`` for a source without
    intrinsic calls); it builds only where the compiler defines each one's
    feature macro.  ``tiled_nests`` counts the nests emitted over a register
    tile of accumulators: reduction-update nests
    (``_CEmitter._reduction_nest``) and intrinsic bands whose instruction
    registers stay in registers across the reduction loops
    (``_CEmitter._intrinsic_band``); 0 means every fold is one serial chain
    per output element and every instruction call loads and stores its
    accumulator.  ``parallel_loops`` counts the loops the source runs across
    the entry point's thread pool; 0 means the kernel is serial.
    """

    func_name: str
    source: str
    entry: str
    params: Tuple = ()
    instructions: Tuple[str, ...] = ()
    tiled_nests: int = 0
    parallel_loops: int = 0


_C_TYPES = {
    "int8": "int8_t",
    "uint8": "uint8_t",
    "int16": "int16_t",
    "uint16": "uint16_t",
    "int32": "int32_t",
    "int64": "int64_t",
    "float32": "float",
    "float64": "double",
    "bool": "uint8_t",
}

# Weak kinds (NEP-50 "python scalar" operands): weak int, weak float, weak
# bool.  Strong operands carry their DType.
_WI, _WF, _WB = "wi", "wf", "wb"


def _combine_kinds(ka, kb):
    if isinstance(ka, DType) and isinstance(kb, DType):
        return from_string(np.promote_types(ka.np_dtype, kb.np_dtype).name)
    if isinstance(ka, DType):
        return ka
    if isinstance(kb, DType):
        return kb
    if _WF in (ka, kb):
        return _WF
    return _WI


def _c_type_for(kind) -> str:
    if isinstance(kind, DType):
        ctype = _C_TYPES.get(kind.name)
        if ctype is None:
            raise LoweringError(f"dtype {kind.name} has no native lowering")
        return ctype
    return {"wi": "int64_t", "wf": "double", "wb": "int64_t"}[kind]


def _c_float_literal(value: float, single: bool) -> str:
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise LoweringError("non-finite float constant in native lowering")
    # Hex float literals are exact; the default %r round-trips only for repr
    # parsing, which C does not do.
    text = value.hex()
    return f"{text}f" if single else text


# -- native eligibility -------------------------------------------------------

def _intrinsic_native_reason(intrin) -> Optional[str]:
    """Why an intrinsic cannot be written natively, or None if it can.

    Native code is the hardware instruction, so the intrinsic needs a
    ``NativeLowering`` to spell it.  The instruction sums in its own order,
    which matches the interpreter's point-by-point evaluation of the DSL body
    bit for bit only when the accumulation is order-free.  We accept exactly
    the structural class the engine already trusts for round stacking
    (`_round_stackable`): an integer accumulator plus an integer sum-reduction
    that does not read the accumulator or the output — int wraparound
    addition is associative, so any evaluation order agrees.
    """
    if intrin.native_lowering is None:
        return f"intrinsic {intrin.name} has no NativeLowering"
    op = intrin.op
    out = op.output
    if not out.dtype.is_integer:
        return f"intrinsic {intrin.name}: non-integer accumulator"
    body = op.body
    if not isinstance(body, E.Add):
        return f"intrinsic {intrin.name}: body is not acc + reduce"
    # The accumulator is whichever operand is a load at the instruction's own axes.
    loads = [x.tensor for x in (body.a, body.b) if isinstance(x, E.TensorLoad)]
    acc = loads and accumulation_form(body, loads[0], [ax.var for ax in op.axes])
    if not acc or not isinstance(acc.rest, E.Reduce) or acc.rest.combiner != "sum":
        return f"intrinsic {intrin.name}: body is not acc + sum-reduction over its axes"
    for node in E.post_order(acc.rest):
        if isinstance(node, E.TensorLoad) and (
            node.tensor in (loads[0], out) or not node.tensor.dtype.is_integer
        ):
            return f"intrinsic {intrin.name}: reduction reads accumulator/output or non-integer lanes"
    return None


def _expr_native_reason(expr: E.Expr) -> Optional[str]:
    for node in E.post_order(expr):
        if node.__class__ not in TIR_EXPR_KINDS:
            return f"{type(node).__name__} expressions have no native lowering"
        if node.dtype is not None and node.dtype.name not in _C_TYPES:
            return f"dtype {node.dtype.name} has no native lowering"
        # numpy's float floor division and remainder are not C's floor(a / b)
        # and fmod (1.0 // 0.1 is 9.0; -4.0 % 2.0 is +0.0).
        if isinstance(node, (E.FloorDiv, E.Mod)) and not node.dtype.is_integer:
            return f"{node.dtype.name} {type(node).__name__} has no native lowering"
    return None


def native_support_reason(func: PrimFunc) -> Optional[str]:
    """Return why ``func`` cannot be natively compiled, or None if it can."""
    for tensor in func.params:
        if tensor.dtype.name not in _C_TYPES:
            return f"parameter {tensor.name}: dtype {tensor.dtype.name} has no native lowering"

    for stmt in walk(func.body):
        reason = None
        exprs: List[E.Expr] = []
        if isinstance(stmt, IfThenElse):
            exprs = [stmt.condition]
        elif isinstance(stmt, Store):
            exprs = [stmt.value, *stmt.indices]
        elif isinstance(stmt, IntrinsicCall):
            reason = _intrinsic_native_reason(stmt.intrin)
            for binding in [*stmt.inputs, stmt.output]:
                exprs += [*binding.program_indices, *binding.intrin_indices]
        elif isinstance(stmt, Allocate):
            if stmt.tensor.dtype.name not in _C_TYPES:
                reason = f"allocation {stmt.tensor.name}: dtype {stmt.tensor.dtype.name} has no native lowering"
        elif not isinstance(stmt, (SeqStmt, For, AttrStmt)):
            reason = f"statement {type(stmt).__name__} has no native lowering"
        for expr in exprs:
            reason = reason or _expr_native_reason(expr)
        if reason:
            return reason
    return None


# -- C emitter ----------------------------------------------------------------

_C_PRELUDE = """\
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Python floor-division / floor-modulo over int64, with numpy's div-by-zero
 * convention (result 0). */
static inline int64_t repro_fdiv(int64_t a, int64_t b) {
    if (b == 0) return 0;
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}
static inline int64_t repro_fmod(int64_t a, int64_t b) {
    if (b == 0) return 0;
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}
"""


class _NameTable:
    """Identity-keyed unique C identifiers for Vars and Tensors."""

    def __init__(self) -> None:
        self._names: Dict[int, str] = {}
        self._used = set()

    def name(self, obj, hint: str, prefix: str) -> str:
        key = id(obj)
        if key in self._names:
            return self._names[key]
        base = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in hint)
        if not base or base[0].isdigit():
            base = "_" + base
        candidate = f"{prefix}{base}"
        serial = 0
        while candidate in self._used:
            serial += 1
            candidate = f"{prefix}{base}_{serial}"
        self._used.add(candidate)
        self._names[key] = candidate
        return candidate


# The lane-broadcast spelling of a ``NativeLowering`` repeats one 4-byte
# group (an ``int32_t``) across the register.
_BROADCAST_BYTES = 4


def _operand_access(call: IntrinsicCall, binding, env) -> str:
    """How the instruction reaches one operand register's memory.

    ``"contiguous"``: lane ``l`` of the register is program element
    ``base + l`` — one unaligned vector load/store.  ``"broadcast"``: every
    4-byte group of lanes is the same contiguous program group — one scalar
    read plus a lane broadcast.  ``"staged"``: anything else; the operand is
    filled lane by lane through a stack array (``_gather`` / ``_scatter``).
    """
    reg, prog = binding.intrin_tensor, binding.program_tensor
    if reg.dtype != prog.dtype:
        return "staged"
    axis_env = loop_env((ax.var, ax.extent) for ax in call.axes)
    extents = {ax.var: int(ax.extent) for ax in call.axes if int(ax.extent) > 1}
    lane = axis_strides(binding.intrin_indices, reg.shape, axis_env, extents)
    addr = axis_strides(binding.program_indices, prog.shape, {**env, **axis_env}, extents)
    if lane is None or addr is None or lane[1] != 0:
        return "staged"
    lane, addr = lane[0], addr[0]
    # The register index must enumerate every lane exactly once (a mixed
    # radix over the axes it mentions), and no other axis may move the address.
    order = sorted((v for v in extents if lane[v]), key=lane.get)
    lanes = 1
    for var in order:
        if lane[var] != lanes:
            return "staged"
        lanes *= extents[var]
    if lanes != reg.num_elements or any(addr[v] for v in extents if not lane[v]):
        return "staged"
    if all(addr[v] == lane[v] for v in order):
        return "contiguous"
    group = 1
    while order and group * reg.dtype.bytes < _BROADCAST_BYTES and addr[order[0]] == lane[order[0]]:
        group *= extents[order.pop(0)]
    if group * reg.dtype.bytes == _BROADCAST_BYTES and not any(addr[v] for v in order):
        return "broadcast"
    return "staged"


# The accumulator tile of a reduction-update nest: the inner data-parallel
# loops supply up to _TILE_LANES elements, innermost first (the lanes of one
# vector of accumulators — a whole row of a wide map, a few rows of a narrow
# one), and the outermost supplies up to _TILE_CHAINS of those vectors:
# independent chains that share every operand the lanes load.  8 x 16 float32
# accumulators fill half of a 32-register vector file and leave the rest to
# the operands.
_TILE_LANES = 16
_TILE_CHAINS = 8


def _tile_shape(extents: List[int]) -> List[int]:
    tile = [1] * len(extents)
    lanes = 1
    for axis in range(len(extents) - 1, 0, -1):
        tile[axis] = min(extents[axis], _TILE_LANES // lanes)
        lanes *= tile[axis]
    tile[0] = min(extents[0], _TILE_CHAINS)
    return tile


# The entry point's first argument: the host's thread pool (the address of
# its ``repro_pool_run``), or NULL to run every loop serially.
_POOL_PARAM = "repro_pool"

# Included by a source with threaded loops: ``repro_for`` runs iterations
# 0..n-1 of a task across the pool, or serially without one.  A task runs
# the iterations ``[first, end)``.
_POOL_PRELUDE = """\
typedef void (*repro_task)(int64_t, int64_t, void*);
typedef void (*repro_pool_run)(repro_task, int64_t, void*);
static void repro_for(void* pool, repro_task task, int64_t n, void* args) {
    if (pool) {
        ((repro_pool_run)pool)(task, n, args);
        return;
    }
    task(0, n, args);
}
"""

# The accumulator tile of an intrinsic band holds one instruction register
# per point of the inner data-parallel loops; 16 is the CPU tuner's largest
# ``unroll_limit``.  A wider band stays one call at a time.
_MAX_REGISTER_TILE = 16


def _loop_chain(stmt: Stmt) -> Tuple[List[For], Stmt]:
    """The loops directly nested from ``stmt`` down, and what they enclose."""
    loops: List[For] = []
    while isinstance(stmt, For):
        loops.append(stmt)
        stmt = stmt.body
    return loops, stmt


def _register_fields(reg) -> Dict[str, object]:
    """The per-register fields of a ``NativeLowering`` spelling."""
    sign = "s" if reg.dtype.is_signed else "u"
    return {
        "elem": reg.dtype.name,
        "sfx": f"{sign}{reg.dtype.bytes * 8}",
        "lanes": reg.num_elements,
    }


class _CEmitter:
    def __init__(self, func: PrimFunc) -> None:
        self.func = func
        self.lines: List[str] = []
        self.depth = 1
        self.names = _NameTable()
        self._tmp = 0
        # Static range of every enclosing loop variable: the symbolic
        # parameters of the address analyses (intrinsic operands, tiles).
        self.env: Dict[E.Var, Interval] = {}
        # Native lowerings the source uses, in first-use order.
        self.lowerings: List = []
        # Reduction-update nests emitted over an accumulator tile.
        self.tiled_nests = 0
        # The entry point's buffers (C name, element type), in parameter
        # order, and every buffer in scope where the emitter is (the
        # parameters plus the enclosing allocations).
        self.params = [(self.tensor_name(t), _c_type_for(t.dtype)) for t in func.params]
        self.buffers = list(self.params)
        # The static functions the threaded loops call, one list of lines
        # each; ``threaded`` is set while one is written, so no loop inside
        # it is threaded too.
        self.parts: List[List[str]] = []
        self.threaded = False

    # -- plumbing ----------------------------------------------------------
    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def fresh(self, prefix: str) -> str:
        self._tmp += 1
        return f"{prefix}{self._tmp}"

    def var_name(self, var: E.Var) -> str:
        return self.names.name(var, var.name, "v_")

    def tensor_name(self, tensor) -> str:
        return self.names.name(tensor, tensor.name, "t_")

    # -- index expressions: python-int semantics, rendered as int64 --------
    def index(self, expr: E.Expr) -> str:
        if isinstance(expr, E.Var):
            return self.var_name(expr)
        if isinstance(expr, E.Const):
            value = int(expr.value)
            return f"{value}LL" if abs(value) > 2**31 - 1 else str(value)
        if isinstance(expr, E.Add):
            return f"(({self.index(expr.a)}) + ({self.index(expr.b)}))"
        if isinstance(expr, E.Sub):
            return f"(({self.index(expr.a)}) - ({self.index(expr.b)}))"
        if isinstance(expr, E.Mul):
            return f"(({self.index(expr.a)}) * ({self.index(expr.b)}))"
        if isinstance(expr, (E.FloorDiv, E.Mod)):
            a, b = self.index(expr.a), self.index(expr.b)
            if isinstance(expr.b, E.Const) and expr.b.value > 0 and self._nonnegative(expr.a):
                # C's truncating division is Python's floor division here.
                return f"(({a}) {'/' if isinstance(expr, E.FloorDiv) else '%'} {b})"
            return f"repro_{'fdiv' if isinstance(expr, E.FloorDiv) else 'fmod'}({a}, {b})"
        if isinstance(expr, E.Min):
            a, b = self.index(expr.a), self.index(expr.b)
            return f"(({b}) < ({a}) ? ({b}) : ({a}))"
        if isinstance(expr, E.Max):
            a, b = self.index(expr.a), self.index(expr.b)
            return f"(({b}) > ({a}) ? ({b}) : ({a}))"
        if isinstance(expr, E.Select):
            cond, _ = self.value(expr.cond, {})
            return f"(({cond}) ? ({self.index(expr.true_value)}) : ({self.index(expr.false_value)}))"
        if isinstance(expr, E.Cast):
            # Index-position casts stay exact in the interpreter's range of
            # interest; int64 holds every in-bounds index.
            return f"(int64_t)({self.index(expr.value)})"
        code, _ = self.value(expr, {})
        return f"(int64_t)({code})"

    def _nonnegative(self, expr: E.Expr) -> bool:
        """Whether ``expr`` is provably >= 0 over the enclosing loops' ranges."""
        interval = expr_interval(expr, self.env)
        return interval is not None and interval.lo >= 0

    def flat_index(self, indices, shape) -> str:
        strides = row_major_strides(shape)
        terms = []
        for idx, stride in zip(indices, strides):
            code = self.index(idx)
            terms.append(code if stride == 1 else f"({code}) * {stride}")
        return " + ".join(terms) if terms else "0"

    # -- value expressions: NEP-50 weak/strong semantics -------------------
    def value(self, expr: E.Expr, subs: Dict[int, Tuple[str, object]]) -> Tuple[str, object]:
        """Render a value expression; returns (code, kind)."""
        if id(expr) in subs:
            return subs[id(expr)]
        if isinstance(expr, E.Var):
            return self.var_name(expr), _WI
        if isinstance(expr, E.Const):
            if isinstance(expr.value, bool):
                return ("1" if expr.value else "0"), _WB
            if isinstance(expr.value, int):
                value = expr.value
                return (f"{value}LL" if abs(value) > 2**31 - 1 else str(value)), _WI
            return _c_float_literal(expr.value, single=False), _WF
        if isinstance(expr, E.TensorLoad):
            name = self.tensor_name(expr.tensor)
            return f"{name}[{self.flat_index(expr.indices, expr.tensor.shape)}]", expr.dtype
        if isinstance(expr, E.Cast):
            code, _ = self.value(expr.value, subs)
            ctype = _c_type_for(expr.dtype)
            return f"(({ctype})({code}))", expr.dtype
        if isinstance(expr, E.Compare):
            ca, ka = self.value(expr.a, subs)
            cb, kb = self.value(expr.b, subs)
            ct = _c_type_for(_combine_kinds(ka, kb))
            return f"((({ct})({ca})) {expr.op} (({ct})({cb})))", _WB
        if isinstance(expr, E.Select):
            cc, _ = self.value(expr.cond, subs)
            ct_code, tk = self.value(expr.true_value, subs)
            cf_code, fk = self.value(expr.false_value, subs)
            kind = _combine_kinds(tk, fk)
            ct = _c_type_for(kind)
            return f"(({cc}) ? (({ct})({ct_code})) : (({ct})({cf_code})))", kind
        if isinstance(expr, E.BinaryOp):
            return self._binary(expr, subs)
        raise LoweringError(f"cannot lower {type(expr).__name__} to C")

    def _binary(self, expr: E.BinaryOp, subs) -> Tuple[str, object]:
        ca, ka = self.value(expr.a, subs)
        cb, kb = self.value(expr.b, subs)
        kind = _combine_kinds(ka, kb)
        ct = _c_type_for(kind)
        if isinstance(expr, (E.Add, E.Sub, E.Mul)):
            op = {"Add": "+", "Sub": "-", "Mul": "*"}[type(expr).__name__]
            return f"(({ct})((({ct})({ca})) {op} (({ct})({cb}))))", kind
        # Integer only: native_support_reason refuses a float FloorDiv / Mod.
        if isinstance(expr, E.FloorDiv):
            return f"(({ct})repro_fdiv((int64_t)(({ct})({ca})), (int64_t)(({ct})({cb}))))", kind
        if isinstance(expr, E.Mod):
            return f"(({ct})repro_fmod((int64_t)(({ct})({ca})), (int64_t)(({ct})({cb}))))", kind
        if isinstance(expr, E.Min):
            a, b = f"(({ct})({ca}))", f"(({ct})({cb}))"
            return f"(({b}) < ({a}) ? ({b}) : ({a}))", kind
        if isinstance(expr, E.Max):
            a, b = f"(({ct})({ca}))", f"(({ct})({cb}))"
            return f"(({b}) > ({a}) ? ({b}) : ({a}))", kind
        raise LoweringError(f"cannot lower {type(expr).__name__} to C")

    def _open_loops(self, axes) -> None:
        for axis in axes:
            name = self.var_name(axis.var)
            self.line(f"for (int64_t {name} = 0; {name} < {axis.extent}; ++{name}) {{")
            self.depth += 1

    def _close_loops(self, axes) -> None:
        for _ in axes:
            self.depth -= 1
            self.line("}")

    def _loop(
        self, name: str, first: int, end: int, step: int, body: Callable[[], None], disjoint: bool
    ) -> None:
        """``for (name = first; name < end; name += step)`` around what
        ``body()`` emits.

        A ``disjoint`` loop (its iterations write disjoint outputs and read
        nothing another iteration writes) of two or more iterations, outside
        any threaded loop, runs across the host's thread pool: its body
        becomes a static function ``repro_partN`` of the loop variable, the
        enclosing loop variables and the buffers in scope; ``repro_taskN``
        calls it for a range of iterations with those values from a struct,
        and the entry point hands the task and the iteration count to
        ``repro_for``.  A function of its own keeps every pointer's
        ``restrict`` and the constant trip counts inside the loop, which the
        compiler's own outlining of the loop (OpenMP's) loses at ~10 ms more
        ``cc`` time per loop; a part over a range of iterations costs as
        much, since its loop bounds are not constants."""
        advance = f"++{name}" if step == 1 else f"{name} += {step}"
        if not disjoint or self.threaded or (end - first) // step < 2:
            self.line(f"for (int64_t {name} = {first}; {name} < {end}; {advance}) {{")
            self.depth += 1
            body()
            self.depth -= 1
            self.line("}")
            return
        k = len(self.parts)
        ints = [self.var_name(var) for var in self.env]
        names = ints + [n for n, _ in self.buffers]
        self.line("{")
        self.line(f"    struct repro_args{k} repro_a = {{{', '.join(names)}}};")
        iterations = (end - first) // step
        self.line(f"    repro_for({_POOL_PARAM}, repro_task{k}, {iterations}, &repro_a);")
        self.line("}")
        fields = [f"int64_t {n};" for n in ints] + [f"{ctype}* {n};" for n, ctype in self.buffers]
        sig = ", ".join(
            [f"int64_t {n}" for n in [name] + ints]
            + [f"{ctype}* restrict {n}" for n, ctype in self.buffers]
        )
        outer = self.lines, self.depth
        part = f"static __attribute__((noinline)) void repro_part{k}({sig}) {{"
        self.lines, self.depth = [part], 1
        self.parts.append(self.lines)
        self.threaded = True
        body()
        self.threaded = False
        iteration = "repro_i" if step == 1 else f"{step} * repro_i"
        start = iteration if first == 0 else f"{first} + {iteration}"
        call = ", ".join([start] + [f"a.{n}" for n in names])
        self.lines += [
            "}",
            f"struct repro_args{k} {{ {' '.join(fields)} }};",
            f"static void repro_task{k}(int64_t repro_first, int64_t repro_end, void* args) {{",
            f"    const struct repro_args{k} a = *(const struct repro_args{k}*)args;",
            "    for (int64_t repro_i = repro_first; repro_i < repro_end; ++repro_i)",
            f"        repro_part{k}({call});",
            "}",
        ]
        self.lines, self.depth = outer

    # -- statements --------------------------------------------------------
    def visit(self, stmt: Stmt) -> None:
        if isinstance(stmt, SeqStmt):
            for s in stmt.stmts:
                self.visit(s)
        elif isinstance(stmt, For):
            nest = self._reduction_nest(stmt)
            if nest is not None:
                self._accumulator_tiles(*nest)
                return
            band = self._intrinsic_band(stmt)
            if band is not None:
                self._intrinsic_tile(*band)
                return
            def body() -> None:
                self.env[stmt.var] = Interval(0, max(0, int(stmt.extent) - 1))
                self.visit(stmt.body)
                del self.env[stmt.var]

            disjoint = not self.threaded and self._disjoint_iterations(stmt)
            self._loop(self.var_name(stmt.var), 0, stmt.extent, 1, body, disjoint)
        elif isinstance(stmt, IfThenElse):
            cond, _ = self.value(stmt.condition, {})
            self.line(f"if ({cond}) {{")
            self.depth += 1
            self.visit(stmt.then_case)
            self.depth -= 1
            if stmt.else_case is not None:
                self.line("} else {")
                self.depth += 1
                self.visit(stmt.else_case)
                self.depth -= 1
            self.line("}")
        elif isinstance(stmt, AttrStmt):
            self.visit(stmt.body)
        elif isinstance(stmt, Allocate):
            name = self.tensor_name(stmt.tensor)
            ctype = _c_type_for(stmt.tensor.dtype)
            count = stmt.tensor.num_elements
            self.line("{")
            self.depth += 1
            # calloc matches the interpreter's np.zeros initialisation.
            self.line(f"{ctype}* {name} = ({ctype}*)calloc({count}, sizeof({ctype}));")
            self.buffers.append((name, ctype))
            self.visit(stmt.body)
            self.buffers.pop()
            self.line(f"free({name});")
            self.depth -= 1
            self.line("}")
        elif isinstance(stmt, Store):
            code, _ = self.value(stmt.value, {})
            self.line(f"{self._element(stmt.tensor, stmt.indices)} = {self._stored(stmt.tensor, code)};")
        elif isinstance(stmt, IntrinsicCall):
            self._intrinsic(stmt)
        else:
            raise LoweringError(f"cannot lower {type(stmt).__name__} to C")

    def _element(self, tensor, indices) -> str:
        return f"{self.tensor_name(tensor)}[{self.flat_index(indices, tensor.shape)}]"

    def _stored(self, tensor, code: str) -> str:
        """``code`` converted the way a store into ``tensor`` converts it."""
        if tensor.dtype.name == "bool":
            return f"(uint8_t)(({code}) != 0)"
        return f"({_c_type_for(tensor.dtype)})({code})"

    # -- reduction-update nests: a register tile of accumulators -----------
    def _reduction_nest(self, stmt: For):
        """``(parallel, reduction, store)`` when ``stmt`` heads a perfect band
        ``parallel loops > reduction loops > t[idx] = t[idx] (op) e`` whose
        iterations may be regrouped into tiles, else ``None``.

        Regrouping runs the data-parallel points in another order, which is
        only invisible when no two of them touch the same element: ``e`` must
        not read ``t`` and ``idx`` must be injective over the whole parallel
        band.  Each element then still folds its own operands in
        reduction-loop order, as written — only ``t[idx] (op) e`` tiles,
        because operand order decides which NaN payload survives.
        """
        band, node = _loop_chain(stmt)
        if not isinstance(node, Store):
            return None  # a guard, a pragma scope or an intrinsic call under the loops
        nest = read_nest(stmt)
        acc = nest.accumulation
        if acc is None or not acc.load_is_left or nest.carried:
            return None
        depth = len(nest.parallel)
        if not 0 < depth < len(band) or nest.parallel != tuple(range(depth)):
            return None  # the band is not parallel loops around reduction loops
        if not nest.injective(self.env):
            return None
        return band[:depth], band[depth:], nest.body

    def _accumulator_tiles(self, parallel: List[For], reduction: List[For], store: Store) -> None:
        """Emit a recognised reduction-update nest tile by tile.  A loop its
        tile width does not divide runs its full tiles first and then one
        narrower tile over the remainder, so every combination of (full,
        remainder) per loop is its own copy of the tile body."""
        self.tiled_nests += 1
        spans = []
        for loop, width in zip(parallel, _tile_shape([loop.extent for loop in parallel])):
            covered = loop.extent - loop.extent % width
            spans.append([(0, covered, width)])
            if covered < loop.extent:
                spans[-1].append((covered, loop.extent, loop.extent - covered))
        for combo in itertools.product(*spans):
            self._accumulator_tile(parallel, reduction, store, combo)

    def _accumulator_tile(self, parallel, reduction, store: Store, combo) -> None:
        """One tile body: ``combo`` gives ``(first iteration, end, tile
        width)`` for every data-parallel loop.  The outermost loop runs across
        the kernel's threads: the store is injective over the whole band, so
        its iterations write disjoint elements."""
        wide = []
        lanes = 1
        origins = []
        for loop, (first, end, width) in zip(parallel, combo):
            if width == 1:
                origins.append(self.var_name(loop.var))
            else:
                origins.append(self.fresh("tile"))
                wide.append((loop, origins[-1], width))
                lanes *= width

        def loops(level: int) -> None:
            if level == len(parallel):
                self._tile_body(wide, lanes, reduction, store)
                return
            first, end, width = combo[level]
            body = functools.partial(loops, level + 1)
            self._loop(origins[level], first, end, width, body, disjoint=level == 0)

        loops(0)

    def _tile_body(self, wide, lanes: int, reduction, store: Store) -> None:
        """The accumulators of one tile: loaded, updated over the reduction
        loops, stored; ``wide`` gives ``(loop, origin, width)`` for every
        data-parallel loop of the tile wider than one."""
        acc = self.fresh("acc")
        self.line(f"{_c_type_for(store.tensor.dtype)} {acc}[{lanes}];")

        def over_lanes(statement) -> None:
            # The tile's loops, innermost: constant trip counts, one
            # accumulator per iteration, no dependence between iterations.
            slot = ""
            for loop, origin, width in wide:
                lane = self.fresh("lane")
                self.line(f"for (int64_t {lane} = 0; {lane} < {width}; ++{lane}) {{")
                self.depth += 1
                self.line(f"const int64_t {self.var_name(loop.var)} = {origin} + {lane};")
                slot = f"({slot}) * {width} + {lane}" if slot else lane
            self.line(statement(f"{acc}[{slot or 0}]"))
            self._close_loops(wide)

        def update(slot: str) -> str:
            code, _ = self.value(store.value, {id(store.value.a): (slot, store.tensor.dtype)})
            return f"{slot} = {self._stored(store.tensor, code)};"

        element = self._element(store.tensor, store.indices)
        over_lanes(lambda slot: f"{slot} = {element};")
        self._open_loops(reduction)
        over_lanes(update)
        self._close_loops(reduction)
        over_lanes(lambda slot: f"{element} = {slot};")

    def _disjoint_iterations(self, stmt: For) -> bool:
        """Whether the iterations of ``stmt`` may run at once: it heads a
        chain of loops, guards and pragma scopes ending in one write whose
        address moves with ``stmt``, the overlap analysis proves the writes
        of distinct loop points (enclosing loops included) disjoint, and no
        iteration reads what another writes.  The write is an instruction
        call whose only input from the output tensor is the accumulator at
        the output's own address, or a store whose value does not read its
        tensor."""
        nest = read_nest(stmt)
        body = nest.body
        if isinstance(body, IntrinsicCall):
            out = body.output
            if any(
                b.program_tensor is out.program_tensor
                and not same_index(b.program_indices, out.program_indices)
                for b in body.inputs
            ):
                return False
            tensor, indices = out.program_tensor, out.program_indices
            tile = [(ax.var, int(ax.extent)) for ax in body.axes]
        elif isinstance(body, Store) and body.tensor not in E.tensors_referenced(body.value):
            tensor, indices, tile = body.tensor, body.indices, []
        else:
            return False
        if not any(stmt.var in E.free_vars(idx) for idx in indices):
            return False
        enclosing = [(var, iv.hi + 1) for var, iv in self.env.items()]
        axes = enclosing + nest.axes
        return indices_disjoint(indices, tensor.shape, axes, tile, tuple(nest.guards)) is True

    # -- intrinsic bands: the accumulator registers stay in registers ------
    def _intrinsic_band(self, stmt: For):
        """``(reduction, inner, call, acc)`` when ``stmt`` heads ``reduction
        loops > data-parallel loops > one IntrinsicCall`` (the band the CPU
        schedule puts under its outer loops) whose accumulator may stay in
        registers across the reduction loops, else ``None``.

        The output address must not move with the reduction loops and must
        move injectively, by whole registers, over the inner loops: each
        inner point then owns one block of memory for the whole band.  ``acc``,
        the only input that reads the output tensor, must read that same
        block, and both must be ``contiguous``.  Each register still runs its
        calls in reduction-loop order, as written.
        """
        loops, call = _loop_chain(stmt)
        if not isinstance(call, IntrinsicCall):
            return None  # a guard, a pragma scope or a store under the loops
        nest = read_nest(stmt)
        depth = len(loops) - len(nest.parallel)
        if depth == 0 or nest.parallel != tuple(range(depth, len(loops))):
            return None  # the band is not reduction loops around data-parallel loops
        out = call.output
        readers = [b for b in call.inputs if b.program_tensor is out.program_tensor]
        if len(readers) != 1 or not same_index(readers[0].program_indices, out.program_indices):
            return None
        if math.prod(loop.extent for loop in loops[depth:]) > _MAX_REGISTER_TILE:
            return None
        env = {**self.env, **loop_env((loop.var, loop.extent) for loop in loops)}
        if any(_operand_access(call, b, env) != "contiguous" for b in (readers[0], out)):
            return None  # a staged accumulator or output
        axes = loop_env((ax.var, ax.extent) for ax in call.axes)
        if not nest.injective({**self.env, **axes}, reach=out.intrin_tensor.num_elements - 1):
            return None
        return loops[:depth], loops[depth:], call, readers[0]

    def _intrinsic_tile(self, reduction, inner, call: IntrinsicCall, acc) -> None:
        """Emit a recognised band over a tile of instruction registers: one
        load per inner point before the reduction loops, the instruction on
        that point's register inside them, one store per point after."""
        self.tiled_nests += 1
        lowering = call.intrin.native_lowering
        out = call.output
        names = _register_fields(out.intrin_tensor)
        points = list(itertools.product(*(range(loop.extent) for loop in inner)))
        tile = self.fresh("acc")
        self.line(f"{lowering.vector_type.format(**names)} {tile}[{len(points)}];")

        def block(slot: int) -> str:
            point = {loop.var: E.Const(v) for loop, v in zip(inner, points[slot])}
            return self._register_base(call, out, point)

        for slot in range(len(points)):
            self.line(f"{tile}[{slot}] = {lowering.load.format(ptr=block(slot), **names)};")
        for loop in reduction + inner:
            self.env[loop.var] = Interval(0, loop.extent - 1)
        self._open_loops(reduction + inner)
        index, width = "", 1
        for loop in reversed(inner):
            if loop.extent > 1:
                name = self.var_name(loop.var)
                term = name if width == 1 else f"{name} * {width}"
                index = f"{term} + {index}" if index else term
                width *= loop.extent
        register = f"{tile}[{index or 0}]"
        self.line("{")
        self.depth += 1
        result = self._instruction(call, lowering, {acc.intrin_tensor.name: register})
        self.line(f"{register} = {result};")
        self.depth -= 1
        self.line("}")
        self._close_loops(reduction + inner)
        for loop in reduction + inner:
            del self.env[loop.var]
        for slot in range(len(points)):
            value = f"{tile}[{slot}]"
            self.line(lowering.store.format(ptr=block(slot), value=value, **names) + ";")

    def _intrinsic(self, call: IntrinsicCall) -> None:
        """One call on its own: the accumulator comes from memory and the
        result goes back to it."""
        lowering = call.intrin.native_lowering
        self.line("{")
        self.depth += 1
        result = self._instruction(call, lowering, {})
        out = call.output
        staged = _operand_access(call, out, self.env) != "contiguous"
        if staged:
            self._declare_register(out)
        target = self.tensor_name(out.intrin_tensor) if staged else self._register_base(call, out)
        names = _register_fields(out.intrin_tensor)
        self.line(lowering.store.format(ptr=target, value=result, **names) + ";")
        if staged:
            self._scatter(call)
        self.depth -= 1
        self.line("}")

    def _declare_register(self, binding) -> None:
        # A stack array, zero-filled like the interpreter's np.zeros registers.
        reg = binding.intrin_tensor
        self.line(f"{_c_type_for(reg.dtype)} {self.tensor_name(reg)}[{reg.num_elements}] = {{0}};")

    def _gather(self, call: IntrinsicCall, bindings) -> None:
        # Lane by lane over the call's axes, in order (last write wins,
        # matching the interpreter's itertools.product walk).
        self._open_loops(call.axes)
        for binding in bindings:
            reg = binding.intrin_tensor
            src = self.tensor_name(binding.program_tensor)
            dst = self.tensor_name(reg)
            src_flat = self.flat_index(binding.program_indices, binding.program_tensor.shape)
            dst_flat = self.flat_index(binding.intrin_indices, reg.shape)
            self.line(f"{dst}[{dst_flat}] = ({_c_type_for(reg.dtype)})({src}[{src_flat}]);")
        self._close_loops(call.axes)

    def _scatter(self, call: IntrinsicCall) -> None:
        # The output register back to the program tensor.
        out_binding = call.output
        src = self.tensor_name(out_binding.intrin_tensor)
        dst = self.tensor_name(out_binding.program_tensor)
        self._open_loops(call.axes)
        dst_flat = self.flat_index(out_binding.program_indices, out_binding.program_tensor.shape)
        src_flat = self.flat_index(out_binding.intrin_indices, out_binding.intrin_tensor.shape)
        cast = _c_type_for(out_binding.program_tensor.dtype)
        self.line(f"{dst}[{dst_flat}] = ({cast})({src}[{src_flat}]);")
        self._close_loops(call.axes)

    def _register_base(self, call: IntrinsicCall, binding, fixed=None) -> str:
        """Pointer to the program element of a register's lane 0 (every axis
        of the call at 0; ``fixed`` pins further variables)."""
        origin = {**{ax.var: E.Const(0) for ax in call.axes}, **(fixed or {})}
        indices = [E.substitute(idx, origin) for idx in binding.program_indices]
        name = self.tensor_name(binding.program_tensor)
        return f"{name} + {self.flat_index(indices, binding.program_tensor.shape)}"

    def _instruction(self, call: IntrinsicCall, lowering, held: Dict[str, str]) -> str:
        """The hardware instruction itself: one vector value per operand
        register, then the instruction, returned as an expression.  ``held``
        names the registers (by description tensor) that are already vector
        values.  Only a ``staged`` operand's *fill* goes lane by lane through
        a stack array."""
        if lowering not in self.lowerings:
            self.lowerings.append(lowering)
        operands: Dict[str, str] = dict(held)
        for binding in call.inputs:
            reg = binding.intrin_tensor
            if reg.name in held:
                continue
            names = _register_fields(reg)
            access = _operand_access(call, binding, self.env)
            if access == "contiguous":
                value = lowering.load.format(ptr=self._register_base(call, binding), **names)
            elif access == "broadcast":
                group = self.fresh("grp")
                self.line(f"int32_t {group};")
                source = self._register_base(call, binding)
                self.line(f"memcpy(&{group}, {source}, {_BROADCAST_BYTES});")
                value = lowering.broadcast.format(scalar=group, **names)
            else:
                self._declare_register(binding)
                self._gather(call, [binding])
                value = lowering.load.format(ptr=self.tensor_name(reg), **names)
            vector = self.fresh("vec")
            self.line(f"{lowering.vector_type.format(**names)} {vector} = {value};")
            operands[reg.name] = vector
        try:
            return lowering.op.format(**operands)
        except KeyError as exc:
            raise LoweringError(
                f"native lowering of {call.intrin.name} names unknown operand {exc}"
            ) from None


def generate_c(func: PrimFunc) -> NativeSource:
    """Lower ``func`` to a self-contained C translation unit.

    The entry point takes the thread pool of its threaded loops (NULL:
    serial), then one pointer per ``func.params`` tensor (row-major,
    C-contiguous), and mirrors the scalar interpreter bit for bit at any
    thread count; compile with ``-O3 -fwrapv -ffp-contract=off``.  Every
    tensorized region is the hardware instruction
    (``NativeSource.instructions``), so the source
    builds only with flags that define each instruction's feature macro
    (``-march=native`` on a host that has it).  The text does not depend on
    the host.
    """
    reason = native_support_reason(func)
    if reason:
        raise LoweringError(reason)
    emitter = _CEmitter(func)
    emitter.visit(func.body)
    entry = "repro_kernel"
    sig = ", ".join(
        [f"void* {_POOL_PARAM}"] + [f"{ctype}* restrict {name}" for name, ctype in emitter.params]
    )
    lines = [_C_PRELUDE]
    # Vendor headers are slow to parse (immintrin.h: 50-70 ms per cc), so
    # only a source that uses an instruction includes its header.
    for header in dict.fromkeys(lw.header for lw in emitter.lowerings):
        lines.append(f"#include <{header}>")
    if emitter.parts:
        lines.append(_POOL_PRELUDE)
    for part in emitter.parts:
        lines.extend(part)
    lines.append(f"void {entry}({sig}) {{")
    lines.extend(emitter.lines)
    lines.append("}")
    return NativeSource(
        func_name=func.name,
        source="\n".join(lines) + "\n",
        entry=entry,
        params=tuple(func.params),
        instructions=tuple(lw.instruction for lw in emitter.lowerings),
        tiled_nests=emitter.tiled_nests,
        parallel_loops=len(emitter.parts),
    )
