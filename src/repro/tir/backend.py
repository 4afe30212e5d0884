"""The native tier: promotion of warm plans to compiled C kernels.

The paper hands rewritten tensor IR to LLVM (Section II-C.4); this module is
that step for the reproduction.  :class:`~repro.tir.executor.Executor`
dispatches over three tiers:

* ``interpreter`` — the scalar reference semantics (:mod:`.interpreter`);
* ``vectorized`` — batched numpy execution through a cached
  :class:`~repro.tir.engine.ExecutablePlan`;
* ``native`` — the vectorized tier plus *tiered promotion*
  (:func:`run_tiered`): once a plan has run warm ``promote_after`` times, its
  function is lowered through :func:`repro.codegen.lowlevel.generate_c`,
  compiled by the host C toolchain with ``-march=native`` (tensorized regions
  become the hardware instruction where the host has it), loaded through
  ctypes, and subsequent runs dispatch to the compiled kernel.

Promotion is conservative by construction:

* only plans whose every nest the static verifier proved (``proved_nests ==
  vector_nests``, no fallback steps — the PR 6 analysis tier) are eligible,
  and the function must pass :func:`~repro.codegen.lowlevel.native_support_reason`;
* at promotion time the fresh kernel is spot-checked for **bit identity**
  against the vectorized result that was just computed on the caller's real
  buffers — a mismatch demotes instead of promoting;
* any compile or runtime failure demotes the plan permanently (per plan);
  demoted plans keep running vectorized, so the native tier can never change
  results or raise where the vectorized tier would not.

Promotion state lives on the plan object itself (via :func:`tier_state`), so
it is keyed off the process-wide :class:`~repro.tir.plan.PlanCache` exactly
like the plan: every caller that hits the same cached plan shares one warm-run
count and one compiled kernel.
"""

from __future__ import annotations

import atexit
import ctypes
import itertools
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dsl.tensor import Tensor
from ..telemetry import metrics as _metrics, trace as _trace
from ..testing import faults

if TYPE_CHECKING:  # runtime import is lazy (see _lowlevel) to avoid a cycle
    from ..codegen.lowlevel import NativeSource
from .engine import EngineStats, ExecutablePlan
from .lower import PrimFunc


def _lowlevel():
    # Imported lazily: ``repro.codegen.lowlevel`` itself imports ``repro.tir``
    # (for the stmt/expr node types), so a module-level import here would be
    # circular whenever ``repro.codegen`` loads first.
    from ..codegen import lowlevel

    return lowlevel

__all__ = [
    "NativeUnavailable",
    "NativeKernel",
    "TierState",
    "compile_native",
    "native_eligibility_reason",
    "native_toolchain",
    "run_tiered",
    "tier_state",
]


# ---------------------------------------------------------------------------
# Toolchain discovery
# ---------------------------------------------------------------------------


class NativeUnavailable(RuntimeError):
    """No C compiler is installed (or the native tier is disabled)."""


# Kernels are built for the host that runs them: ``-march=native`` is what
# defines the feature macros the generated source keys its instruction paths
# on.  A kernel built elsewhere never reaches this process (no on-disk cache),
# and a wrong guess dies as a sandbox-classified SIGILL, not in the host.
_HOST_FLAG = "-march=native"
_CC_FLAGS = ["-O3", _HOST_FLAG, "-fwrapv", "-ffp-contract=off", "-fPIC", "-shared"]

_TOOLCHAIN_LOCK = threading.Lock()
# (kind, compiler path or reason, the flags that compiler accepts)
_TOOLCHAIN: Optional[Tuple[Optional[str], object, List[str]]] = None


def _accepted_flags(compiler: str) -> List[str]:
    """``_CC_FLAGS``, minus ``-march=native`` where the compiler rejects it
    (one trivial translation unit, once per probe) — losing the flag costs
    the instruction paths, rejecting it per kernel would cost the tier."""
    try:
        proc = subprocess.run(
            [compiler, _HOST_FLAG, "-fsyntax-only", "-x", "c", "-"],
            input="int repro_probe;\n",
            capture_output=True,
            text=True,
            timeout=_compile_timeout_s(),
        )
        accepted = proc.returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        accepted = False
    return [flag for flag in _CC_FLAGS if accepted or flag != _HOST_FLAG]


def _discover_toolchain() -> Tuple[Optional[str], object, List[str]]:
    if os.environ.get("REPRO_DISABLE_NATIVE"):
        return None, "native tier disabled via REPRO_DISABLE_NATIVE", []
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return "cc", path, _accepted_flags(path)
    return None, "no C compiler (cc/gcc/clang) is available", []


def _toolchain(refresh: bool = False) -> Tuple[Optional[str], object, List[str]]:
    global _TOOLCHAIN
    with _TOOLCHAIN_LOCK:
        if _TOOLCHAIN is None or refresh:
            _TOOLCHAIN = _discover_toolchain()
        return _TOOLCHAIN


def native_toolchain(refresh: bool = False) -> Tuple[Optional[str], object]:
    """The available native toolchain.

    Returns ``("cc", <compiler path>)`` or ``(None, <reason string>)``.
    Cached after the first probe; pass ``refresh=True`` to re-probe (tests
    monkeypatching the environment).
    """
    return _toolchain(refresh)[:2]


def cc_flags() -> List[str]:
    """The flags every kernel is built with: ``_CC_FLAGS`` as the probed
    compiler accepts them."""
    return list(_toolchain()[2])


# ---------------------------------------------------------------------------
# Kernel compilation
# ---------------------------------------------------------------------------

_BUILD_DIR: Optional[str] = None
# One counter names every build artefact (host compiles and adopted sandbox
# libraries alike); ``next`` on it is atomic, so plans promoting on different
# threads — each holding only its own ``TierState.lock`` — never share a name.
_ARTEFACT_SERIAL = itertools.count(1)


def _build_dir() -> str:
    global _BUILD_DIR
    if _BUILD_DIR is None:
        _BUILD_DIR = tempfile.mkdtemp(prefix="repro_native_")
        atexit.register(shutil.rmtree, _BUILD_DIR, ignore_errors=True)
    return _BUILD_DIR


def artefact_stem(func_name: str) -> str:
    """A fresh path stem (no extension) in the process's build directory."""
    return os.path.join(_build_dir(), f"{func_name}_{next(_ARTEFACT_SERIAL)}")


class NativeKernel:
    """A compiled kernel for one PrimFunc.

    ``params`` is the buffer order of the entry point (``func.params``).
    Call :meth:`run` with arrays aligned to that order; the output array is
    mutated in place, exactly like ``Interpreter.run``.
    """

    def __init__(self, source: NativeSource, entry: Callable) -> None:
        self.source = source
        self._entry = entry
        self.params: Tuple[Tensor, ...] = tuple(source.params)

    def run(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        if len(arrays) != len(self.params):
            raise ValueError(
                f"kernel {self.source.func_name!r} takes {len(self.params)} buffers, "
                f"got {len(arrays)}"
            )
        prepared: List[np.ndarray] = []
        for tensor, array in zip(self.params, arrays):
            if tuple(array.shape) != tensor.shape:
                raise ValueError(
                    f"buffer {tensor.name!r}: expected shape {tensor.shape}, "
                    f"got {tuple(array.shape)}"
                )
            if array.dtype != tensor.dtype.np_dtype:
                raise ValueError(
                    f"buffer {tensor.name!r}: expected dtype {tensor.dtype.name}, "
                    f"got {array.dtype}"
                )
            prepared.append(array if array.flags.c_contiguous else np.ascontiguousarray(array))
        self._entry(*[a.ctypes.data for a in prepared])
        # The kernel writes only its output parameter: a staged copy of an
        # input is dropped (the caller's input may be read-only), a staged
        # output is copied back.
        if prepared[-1] is not arrays[-1]:
            arrays[-1][...] = prepared[-1]
        return arrays[-1]


_DEFAULT_COMPILE_TIMEOUT_S = 120.0


def _compile_timeout_s() -> float:
    """Wall-clock budget for one C-compiler invocation.

    A wedged ``cc`` (NFS stall, broken ccache, runaway optimizer) used to
    block promotion — and the promoting run — forever; now it raises
    ``LoweringError`` and the plan demotes like any other compile failure.
    """
    raw = os.environ.get("REPRO_NATIVE_COMPILE_TIMEOUT")
    if raw is not None:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return _DEFAULT_COMPILE_TIMEOUT_S


def load_kernel(source: NativeSource, so_path: str) -> NativeKernel:
    """Load a built shared object as the kernel of ``source`` — the one place
    a library becomes a :class:`NativeKernel`, whether this process compiled
    it or the sandbox child did."""
    library = ctypes.CDLL(so_path)
    entry = getattr(library, source.entry)
    entry.restype = None
    entry.argtypes = [ctypes.c_void_p] * len(source.params)
    kernel = NativeKernel(source, entry)
    kernel._library = library  # keep the handle alive with the kernel
    return kernel


def _compile_c(source: NativeSource, compiler: str) -> NativeKernel:
    stem = artefact_stem(source.func_name)
    c_path, so_path = stem + ".c", stem + ".so"
    with open(c_path, "w") as handle:
        handle.write(source.source)
    try:
        proc = subprocess.run(
            [compiler, *cc_flags(), "-o", so_path, c_path],
            capture_output=True,
            text=True,
            timeout=_compile_timeout_s(),
        )
    except subprocess.TimeoutExpired as exc:
        raise _lowlevel().LoweringError(
            f"C compilation of {source.func_name!r} timed out after "
            f"{exc.timeout:g}s"
        ) from None
    if proc.returncode != 0:
        raise _lowlevel().LoweringError(
            f"C compilation of {source.func_name!r} failed:\n{proc.stderr.strip()}"
        )
    return load_kernel(source, so_path)


def compile_native(func: PrimFunc) -> NativeKernel:
    """Lower ``func`` to a compiled kernel with the host C toolchain.

    Raises :class:`NativeUnavailable` when no toolchain exists and
    :class:`~repro.codegen.lowlevel.LoweringError` when ``func`` cannot be
    lowered or compilation fails.
    """
    kind, payload = native_toolchain()
    if kind is None:
        raise NativeUnavailable(str(payload))
    faults.fire("backend.compile", func_name=func.name, where="host")
    return _compile_c(_lowlevel().generate_c(func), str(payload))


# ---------------------------------------------------------------------------
# Tier state and promotion
# ---------------------------------------------------------------------------

# Warm runs before a plan is considered for native promotion;
# ``Executor(promote_after=)`` is the one override.
_DEFAULT_PROMOTE_AFTER = 3


@dataclass
class TierState:
    """Per-plan promotion state (shared by every caller of a cached plan).

    ``sandbox_outcome`` records what the qualification sandbox concluded for
    this plan's candidate kernel (``"qualified"``, ``"segfault"``, ``"oom"``,
    ``"hang"``, ``"mismatch"``, ... — see
    :class:`repro.tir.sandbox.SandboxVerdict`), or ``None`` when the sandbox
    has not run (not yet promoted, disabled, or no toolchain).
    """

    tier: str = "vectorized"
    warm_runs: int = 0
    kernel: Optional[NativeKernel] = None
    demoted: bool = False
    demotion_reason: str = ""
    sandbox_outcome: Optional[str] = None
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


def tier_state(plan: ExecutablePlan) -> TierState:
    """The promotion state attached to ``plan`` (created on first use)."""
    state = getattr(plan, "_tier_state", None)
    if state is None:
        state = TierState()
        plan._tier_state = state
    return state


def native_eligibility_reason(plan: ExecutablePlan) -> Optional[str]:
    """Why ``plan`` can never promote to native, or None if it may.

    Eligibility requires the static verification tier (PR 6) to have proved
    every nest — the same proofs that elide runtime guards now license
    codegen — plus a plan with no interpreter-fallback steps and a function
    the native emitters accept.
    """
    if plan.stats.fallback_nests > 0:
        return f"plan has {plan.stats.fallback_nests} interpreter-fallback nest(s)"
    if plan.stats.vector_nests == 0:
        return "plan has no vectorized nests to compile"
    if plan.stats.proved_nests < plan.stats.vector_nests:
        return (
            f"static verifier proved {plan.stats.proved_nests}/"
            f"{plan.stats.vector_nests} nests; native promotion requires all"
        )
    return _lowlevel().native_support_reason(plan.func)


def _count(stats: Optional[EngineStats], field: str) -> None:
    """One native-tier event: ``stats.<field>`` and the ``tir.<field>`` counter together."""
    if stats is not None:
        setattr(stats, field, getattr(stats, field) + 1)
    _metrics.count("tir." + field)


def _demote(plan: ExecutablePlan, reason: str, stats: Optional[EngineStats]) -> None:
    state = tier_state(plan)
    state.tier = "vectorized"
    state.kernel = None
    state.demoted = True
    state.demotion_reason = reason
    _count(stats, "native_demotions")


def _kernel_arrays(
    plan: ExecutablePlan, func: PrimFunc, buffers: Dict[Tensor, np.ndarray]
) -> List[np.ndarray]:
    """Order the caller's buffers to the plan function's parameter order.

    Mirrors ``ExecutablePlan.run``'s positional rebinding for plans served
    from the cache for a structurally identical function.
    """
    arrays = []
    for mine, theirs in zip(plan.func.params, func.params):
        if theirs not in buffers:
            raise KeyError(f"missing buffer for parameter {theirs.name!r}")
        arrays.append(buffers[theirs])
    return arrays


def _try_promote(
    plan: ExecutablePlan,
    func: PrimFunc,
    inputs_before: List[np.ndarray],
    output_before: np.ndarray,
    expected: np.ndarray,
    stats: Optional[EngineStats],
) -> None:
    """Compile a kernel and spot-check it for bit identity before promoting.

    ``inputs_before``/``output_before`` are the buffer values the vectorized
    run consumed; ``expected`` is the result it produced.  Running the fresh
    kernel over copies of the same inputs must reproduce ``expected`` bit for
    bit, else the plan demotes.

    When a toolchain exists and the sandbox is enabled, the candidate is
    first compiled and bit-checked in a disposable subprocess
    (:func:`repro.tir.sandbox.qualify`): a kernel that segfaults, OOMs, or
    hangs kills only that child, and the classified verdict becomes the
    demotion reason.  Qualify once, load what was qualified: the host
    ``CDLL``-loads the very library the child built and checked (one ``cc``
    per promotion); only with the sandbox off does it compile for itself.
    """
    from . import sandbox

    state = tier_state(plan)
    toolchain_kind, _ = native_toolchain()
    qualified = None
    with _trace.span("tir.native_promote", func=plan.func.name) as promote_span:
        if toolchain_kind is not None and sandbox.sandbox_enabled():
            check = [np.array(a, copy=True) for a in inputs_before]
            check.append(np.array(output_before, copy=True))
            with _trace.span("tir.sandbox_qualify", func=plan.func.name) as sq:
                verdict = sandbox.qualify(plan.func, check, expected)
                sq.set(outcome=verdict.outcome)
            state.sandbox_outcome = verdict.outcome
            _count(stats, "sandbox_qualifications")
            if not verdict.ok:
                _count(stats, "sandbox_rejections")
                promote_span.set(outcome="sandbox_rejected")
                _demote(
                    plan,
                    f"sandbox rejected native kernel ({verdict.describe()})",
                    stats,
                )
                return
            qualified = verdict
        try:
            with _trace.span("tir.native_load", func=plan.func.name) as load_span:
                if qualified is not None:
                    load_span.set(origin="loaded_qualified")
                    kernel = load_kernel(qualified.source, qualified.library)
                else:
                    load_span.set(origin="compiled")
                    kernel = compile_native(plan.func)
        except Exception as exc:  # NativeUnavailable, LoweringError, OSError, injected
            promote_span.set(outcome="compile_failed")
            _demote(plan, f"native compile failed: {exc}", stats)
            return
        promote_span.set(
            instructions=",".join(kernel.source.instructions),
            tiled_nests=kernel.source.tiled_nests,
        )
        check = [np.array(a, copy=True) for a in inputs_before]
        check.append(np.array(output_before, copy=True))
        try:
            got = kernel.run(check)
        except Exception as exc:  # demote on *any* kernel failure
            promote_span.set(outcome="spot_check_raised")
            _demote(plan, f"native kernel raised during spot-check: {exc}", stats)
            return
        if not np.array_equal(got, expected):
            promote_span.set(outcome="not_bit_identical")
            _demote(
                plan,
                "native kernel is not bit-identical to the vectorized tier",
                stats,
            )
            return
        state.kernel = kernel
        state.tier = "native"
        promote_span.set(outcome="promoted")
    _count(stats, "native_promotions")


def run_tiered(
    plan: ExecutablePlan,
    buffers: Dict[Tensor, np.ndarray],
    stats: Optional[EngineStats] = None,
    func: Optional[PrimFunc] = None,
    promote_after: Optional[int] = None,
) -> np.ndarray:
    """Execute ``plan`` under the tiered native policy.

    Runs natively when the plan is promoted; otherwise runs vectorized,
    counts the warm run, and attempts promotion once the plan is warm and
    eligible.  Any native failure demotes the plan and falls back to the
    vectorized result, so this never errors where the vectorized tier would
    not.
    """
    func = func or plan.func
    state = tier_state(plan)
    threshold = promote_after if promote_after is not None else _DEFAULT_PROMOTE_AFTER

    if state.tier == "native" and state.kernel is not None:
        arrays = _kernel_arrays(plan, func, buffers)
        try:
            with state.lock:
                result = state.kernel.run(arrays)
        except Exception as exc:
            _demote(plan, f"native kernel raised: {exc}", stats)
        else:
            _count(stats, "native_runs")
            return result

    if state.demoted or state.tier != "vectorized" or state.warm_runs + 1 < threshold:
        result = plan.run(buffers, stats=stats, func=func)
        with state.lock:
            if not state.demoted:
                state.warm_runs += 1
        return result

    # This warm run crosses the threshold: keep the pre-run buffer values so
    # the freshly compiled kernel can be spot-checked on the same inputs.
    arrays = _kernel_arrays(plan, func, buffers)
    inputs_before = [np.array(a, copy=True) for a in arrays[:-1]]
    output_before = np.array(arrays[-1], copy=True)
    result = plan.run(buffers, stats=stats, func=func)
    with state.lock:
        state.warm_runs += 1
        should_promote = (
            not state.demoted
            and state.tier == "vectorized"
            and state.warm_runs >= threshold
        )
        if should_promote:
            reason = native_eligibility_reason(plan)
            if reason is not None:
                _demote(plan, reason, stats)
            else:
                _try_promote(plan, func, inputs_before, output_before, result, stats)
    return result
