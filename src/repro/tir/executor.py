"""The execution facade: the one way to run a PrimFunc.

    executor = repro.tir.Executor(tier="native")
    out = executor.run(func, buffers)
    run = executor.run_model(graph, inputs)

``tier`` is ``"interpreter"`` (the scalar reference semantics),
``"vectorized"`` (batched numpy through the cached
:class:`~repro.tir.engine.ExecutablePlan`), ``"native"`` (vectorized plus
promotion of warm plans to compiled C kernels, :mod:`~repro.tir.backend`) —
or ``"auto"`` (the default), which means the native tier when a C compiler is
available and the vectorized tier otherwise.  ``validation`` is a
:class:`ValidationPolicy`: ``OFF`` trusts the engine, ``SPOT`` checks each
distinct program (:func:`~repro.tir.plan.func_key`) once against the scalar
interpreter, ``FULL`` checks every run.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional, Set, Union

import numpy as np

from ..dsl.tensor import Tensor
from .backend import native_toolchain, run_tiered
from .engine import EngineStats, compile_plan
from .interpreter import Interpreter
from .lower import PrimFunc
from .plan import FuncKey, func_key, plan_cache

__all__ = [
    "Executor",
    "ValidationPolicy",
    "ValidationError",
]

_TIERS = ("interpreter", "vectorized", "native")


class ValidationPolicy(Enum):
    """How much result checking an executor (or tuning session) performs.

    ``OFF``
        Trust the engine; no checks.
    ``SPOT``
        Check once per distinct plan (executors: against the scalar
        interpreter on first sight of a function; tuning: winner-only
        oracle validation).
    ``FULL``
        Check every run (executors) / every candidate (tuning).
    """

    OFF = "off"
    SPOT = "spot"
    FULL = "full"

    @classmethod
    def coerce(
        cls,
        value: Union[None, str, "ValidationPolicy"],
        *,
        default: "ValidationPolicy",
    ) -> "ValidationPolicy":
        """``None`` → ``default``; strings are enum values."""
        if value is None:
            return default
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(value.lower())
        raise TypeError(f"cannot interpret {value!r} as a ValidationPolicy")


class ValidationError(AssertionError):
    """An executor validation check found a result mismatch."""


# -- the facade --------------------------------------------------------------


class Executor:
    """The one way to execute a PrimFunc (or a whole model).

    Parameters
    ----------
    tier:
        ``"auto"`` (native when a C compiler exists, else vectorized),
        ``"interpreter"``, ``"vectorized"``, or ``"native"``.
    validation:
        A :class:`ValidationPolicy` (or its string value).  ``SPOT`` checks
        each distinct function once against the scalar interpreter; ``FULL``
        checks every run.
    strict:
        Vectorized/native tiers raise instead of falling back to the
        interpreter on unvectorizable nests.
    promote_after:
        Warm runs before native promotion (default 3).
    """

    def __init__(
        self,
        tier: str = "auto",
        validation: Union[None, str, ValidationPolicy] = None,
        strict: bool = False,
        promote_after: Optional[int] = None,
    ) -> None:
        self.validation = ValidationPolicy.coerce(validation, default=ValidationPolicy.OFF)
        self.strict = strict
        self.promote_after = promote_after
        self.stats = EngineStats()
        self.tier = self._resolve_tier(tier)
        self._spot_checked: Set[FuncKey] = set()

    @staticmethod
    def _resolve_tier(tier: str) -> str:
        if tier == "auto":
            kind, _ = native_toolchain()
            return "native" if kind else "vectorized"
        if tier in _TIERS:
            return tier
        raise ValueError(f"unknown tier {tier!r} (expected 'auto' or one of {_TIERS})")

    # -- single functions ---------------------------------------------------
    def run(
        self,
        func: PrimFunc,
        buffers: Dict[Tensor, np.ndarray],
        stats: Optional[EngineStats] = None,
    ) -> np.ndarray:
        """Execute ``func`` over ``buffers``; same contract as
        ``Interpreter.run`` (the output buffer is mutated in place)."""
        check = self.validation is ValidationPolicy.FULL
        if self.validation is ValidationPolicy.SPOT:
            key = func_key(func)
            if key not in self._spot_checked:
                self._spot_checked.add(key)
                check = True
        reference: Optional[np.ndarray] = None
        if check:
            reference = Interpreter(func).run(
                {t: np.array(a, copy=True) for t, a in buffers.items()}
            )
        stats = stats if stats is not None else self.stats
        if self.tier == "interpreter":
            result = Interpreter(func).run(buffers)
        else:
            # A strict plan raises on fallback, so it never enters the shared cache.
            if self.strict:
                plan = compile_plan(func, strict=True)
            else:
                plan = plan_cache().get_or_compile(func)
            if self.tier == "vectorized":
                result = plan.run(buffers, stats=stats, func=func)
            else:
                result = run_tiered(
                    plan, buffers, stats=stats, func=func, promote_after=self.promote_after
                )
        if reference is not None and not np.array_equal(reference, result):
            raise ValidationError(
                f"{self.tier} tier result for {func.name!r} differs from the "
                f"scalar interpreter"
            )
        return result

    # -- whole models -------------------------------------------------------
    def run_model(self, model, inputs, weights=None, rng=None, keep=()):
        """Execute a graph (or compiled model) through this executor.

        Accepts a :class:`~repro.graph.ir.Graph` or anything with a
        ``.graph`` attribute (e.g. ``CompiledModel``).  Returns the
        :class:`~repro.graph.executor.ModelRun`.
        """
        from ..graph.executor import run_model as _run_model

        graph = getattr(model, "graph", model)
        return _run_model(
            graph, inputs, weights=weights, rng=rng, keep=keep, executor=self
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Executor(tier={self.tier!r}, validation={self.validation.value!r}, "
            f"strict={self.strict})"
        )
