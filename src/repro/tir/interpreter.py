"""A numpy-backed scalar interpreter for tensor IR.

The interpreter is the *reference* correctness oracle of the repository: every
schedule transformation, every tensorize rewrite, and every intrinsic
replacement can be validated by executing the resulting tensor IR and
comparing against a straightforward numpy reference.  Tensorized-instruction
calls are executed through the instruction's *hardware model* (its exact
lane-by-lane semantics), so a successful comparison demonstrates that UNIT
produced operand bindings that feed the instruction correctly — the property
the paper's Inspector is responsible for.

Day-to-day validation goes through the vectorized execution engine
(:mod:`repro.tir.engine`), which compiles the same loop nests to batched
numpy operations and falls back to this interpreter statement-by-statement;
the scalar path here stays deliberately simple so it can serve as the ground
truth the engine is tested against.

The interpreter is reentrant: all execution state (buffer bindings, the loop
variable environment) lives in a per-call :class:`Frame`, so one
``Interpreter`` instance may be shared across threads (e.g. the tuning
daemon's handler threads) and may be invoked recursively.
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, Optional, Sequence

import numpy as np

from ..dsl import expr as E
from ..dsl.dtype import DType
from ..dsl.tensor import Tensor
from .lower import PrimFunc
from .stmt import (
    Allocate,
    AttrStmt,
    For,
    IfThenElse,
    IntrinsicCall,
    SeqStmt,
    Stmt,
    Store,
)

__all__ = ["Frame", "Interpreter", "run", "alloc_buffers", "random_array"]

# The reference's own comparison table: it shares no logic with the engine
# it checks.
_COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Frame:
    """Execution state of one ``run`` invocation.

    Shared with the vectorized execution engine (:mod:`repro.tir.engine`):
    both executors thread all mutable run state — buffer bindings and the
    loop-variable environment — through per-call frames, which is what makes
    one interpreter/plan instance safely shareable across threads and
    recursion (the engine's fallback path re-enters the interpreter).
    """

    __slots__ = ("buffers", "env")

    def __init__(
        self,
        buffers: Dict[Tensor, np.ndarray],
        env: Optional[Dict[E.Var, int]] = None,
    ) -> None:
        self.buffers = buffers
        self.env = {} if env is None else env


class Interpreter:
    """Execute a :class:`PrimFunc` over numpy buffers, one element at a time."""

    def __init__(self, func: PrimFunc) -> None:
        self.func = func

    # -- public API -------------------------------------------------------
    def run(self, buffers: Dict[Tensor, np.ndarray]) -> np.ndarray:
        """Execute the function.  ``buffers`` maps every parameter tensor to a
        numpy array of matching shape/dtype.  Returns the output buffer."""
        frame = Frame(self.bind_params(buffers))
        self._exec(self.func.body, frame)
        return frame.buffers[self.func.output]

    def run_stmt(
        self,
        stmt: Stmt,
        buffers: Dict[Tensor, np.ndarray],
        env: Optional[Dict[E.Var, int]] = None,
    ) -> None:
        """Execute one statement subtree over caller-owned state.

        This is the fallback entry point used by the vectorized engine: the
        caller's ``buffers`` dict is mutated in place (including buffers added
        by ``Allocate``), and ``env`` provides bindings for loop variables of
        enclosing, already-executed loops.
        """
        self._exec(stmt, Frame(buffers, dict(env) if env else {}))

    def bind_params(self, buffers: Dict[Tensor, np.ndarray]) -> Dict[Tensor, np.ndarray]:
        """Validate parameter buffers and return a fresh binding dict."""
        bound: Dict[Tensor, np.ndarray] = {}
        for tensor in self.func.params:
            if tensor not in buffers:
                raise KeyError(f"missing buffer for parameter {tensor.name!r}")
            array = buffers[tensor]
            if tuple(array.shape) != tensor.shape:
                raise ValueError(
                    f"buffer for {tensor.name!r} has shape {array.shape}, "
                    f"expected {tensor.shape}"
                )
            bound[tensor] = array
        return bound

    # -- statement execution ----------------------------------------------
    def _exec(self, stmt: Stmt, frame: Frame) -> None:
        if isinstance(stmt, SeqStmt):
            for s in stmt.stmts:
                self._exec(s, frame)
        elif isinstance(stmt, For):
            var = stmt.var
            for i in range(stmt.extent):
                frame.env[var] = i
                self._exec(stmt.body, frame)
            frame.env.pop(var, None)
        elif isinstance(stmt, Store):
            buf = self._get_buffer(frame, stmt.tensor)
            idx = [self._eval(i, frame) for i in stmt.indices]
            value = self._eval(stmt.value, frame)
            buf[tuple(int(i) for i in idx)] = _cast_scalar(value, stmt.tensor.dtype)
        elif isinstance(stmt, IfThenElse):
            if self._eval(stmt.condition, frame):
                self._exec(stmt.then_case, frame)
            elif stmt.else_case is not None:
                self._exec(stmt.else_case, frame)
        elif isinstance(stmt, AttrStmt):
            self._exec(stmt.body, frame)
        elif isinstance(stmt, Allocate):
            frame.buffers[stmt.tensor] = np.zeros(
                stmt.tensor.shape, dtype=stmt.tensor.dtype.np_dtype
            )
            self._exec(stmt.body, frame)
        elif isinstance(stmt, IntrinsicCall):
            self._exec_intrinsic(stmt, frame)
        else:
            raise TypeError(f"cannot interpret statement {type(stmt).__name__}")

    def _exec_intrinsic(self, call: IntrinsicCall, frame: Frame) -> None:
        """Execute a tensorized-instruction call through its hardware model."""
        intrin = call.intrin
        axes = call.axes
        extents = [ax.extent for ax in axes]
        axis_vars = [ax.var for ax in axes]

        # Gather: fill each register operand lane by lane from program memory.
        operands: Dict[str, np.ndarray] = {}
        for binding in call.inputs:
            operands[binding.intrin_tensor.name] = np.zeros(
                binding.intrin_tensor.shape, dtype=binding.intrin_tensor.dtype.np_dtype
            )
        for point in itertools.product(*(range(e) for e in extents)):
            for var, value in zip(axis_vars, point):
                frame.env[var] = value
            for binding in call.inputs:
                reg = operands[binding.intrin_tensor.name]
                reg_idx = tuple(int(self._eval(i, frame)) for i in binding.intrin_indices)
                prog_idx = tuple(
                    int(self._eval(i, frame)) for i in binding.program_indices
                )
                reg[reg_idx] = self._get_buffer(frame, binding.program_tensor)[prog_idx]

        # Execute the instruction's hardware semantics on the registers.
        result = intrin.execute(operands)

        # Scatter: write the destination register back to program memory.
        out = call.output
        out_buf = self._get_buffer(frame, out.program_tensor)
        for point in itertools.product(*(range(e) for e in extents)):
            for var, value in zip(axis_vars, point):
                frame.env[var] = value
            reg_idx = tuple(int(self._eval(i, frame)) for i in out.intrin_indices)
            prog_idx = tuple(int(self._eval(i, frame)) for i in out.program_indices)
            out_buf[prog_idx] = _cast_scalar(result[reg_idx], out.program_tensor.dtype)
        for var in axis_vars:
            frame.env.pop(var, None)

    # -- expression evaluation ---------------------------------------------
    def _eval(self, expr: E.Expr, frame: Frame):
        if isinstance(expr, E.Const):
            return expr.value
        if isinstance(expr, E.Var):
            try:
                return frame.env[expr]
            except KeyError as exc:
                raise KeyError(f"unbound variable {expr.name!r}") from exc
        if isinstance(expr, E.Cast):
            return _cast_scalar(self._eval(expr.value, frame), expr.dtype)
        if isinstance(expr, E.TensorLoad):
            buf = self._get_buffer(frame, expr.tensor)
            idx = [self._eval(i, frame) for i in expr.indices]
            return buf[tuple(int(i) for i in idx)]
        if isinstance(expr, E.Add):
            return self._eval(expr.a, frame) + self._eval(expr.b, frame)
        if isinstance(expr, E.Sub):
            return self._eval(expr.a, frame) - self._eval(expr.b, frame)
        if isinstance(expr, E.Mul):
            return self._eval(expr.a, frame) * self._eval(expr.b, frame)
        if isinstance(expr, E.FloorDiv):
            return self._eval(expr.a, frame) // self._eval(expr.b, frame)
        if isinstance(expr, E.Mod):
            return self._eval(expr.a, frame) % self._eval(expr.b, frame)
        if isinstance(expr, E.Min):
            return min(self._eval(expr.a, frame), self._eval(expr.b, frame))
        if isinstance(expr, E.Max):
            return max(self._eval(expr.a, frame), self._eval(expr.b, frame))
        if isinstance(expr, E.Compare):
            return _COMPARE[expr.op](self._eval(expr.a, frame), self._eval(expr.b, frame))
        if isinstance(expr, E.Select):
            return (
                self._eval(expr.true_value, frame)
                if self._eval(expr.cond, frame)
                else self._eval(expr.false_value, frame)
            )
        raise TypeError(f"cannot evaluate expression {type(expr).__name__}")

    def _get_buffer(self, frame: Frame, tensor: Tensor) -> np.ndarray:
        try:
            return frame.buffers[tensor]
        except KeyError as exc:
            raise KeyError(f"no buffer bound for tensor {tensor.name!r}") from exc


def _cast_scalar(value, dtype: DType):
    """Cast a Python/numpy scalar to the exact dtype semantics."""
    return dtype.np_dtype.type(value)


def alloc_buffers(func: PrimFunc, rng: Optional[np.random.Generator] = None) -> Dict[Tensor, np.ndarray]:
    """Allocate random input buffers and a zeroed output buffer for ``func``.

    Integer inputs are drawn from a small range so mixed-precision
    accumulation never overflows int32 in tests.
    """
    rng = rng or np.random.default_rng(0)
    buffers: Dict[Tensor, np.ndarray] = {}
    for tensor in func.inputs:
        buffers[tensor] = random_array(tensor.shape, tensor.dtype, rng)
    buffers[func.output] = np.zeros(func.output.shape, dtype=func.output.dtype.np_dtype)
    return buffers


def random_array(shape: Sequence[int], dtype: DType, rng: np.random.Generator) -> np.ndarray:
    """A random array of the given DSL dtype, with well-behaved value ranges."""
    if dtype.is_integer:
        low = max(dtype.min_value, -8)
        high = min(dtype.max_value, 8)
        return rng.integers(low, high + 1, size=shape).astype(dtype.np_dtype)
    return rng.standard_normal(size=shape).astype(dtype.np_dtype)


def run(func: PrimFunc, buffers: Dict[Tensor, np.ndarray]) -> np.ndarray:
    """Convenience wrapper: interpret ``func`` over ``buffers``."""
    return Interpreter(func).run(buffers)
