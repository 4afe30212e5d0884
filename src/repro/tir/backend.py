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
  compiled by the host C toolchain with ``-march=native``, loaded through
  ctypes, and subsequent runs dispatch to the compiled kernel.  A tensorized
  region is always the hardware instruction, so a plan whose instruction the
  host compiler cannot target (its feature macro is undefined) never promotes.

Promotion is conservative by construction:

* only plans whose every nest the static verifier proved (``proved_nests ==
  vector_nests``, no fallback steps — the PR 6 analysis tier) are eligible,
  the function must pass :func:`~repro.codegen.lowlevel.native_support_reason`,
  and a C compiler must exist whose probe defines every instruction's
  feature macro;
* at promotion time the fresh kernel is spot-checked for **bit identity**
  (:func:`same_bits`) against the vectorized result that was just computed
  on the caller's real buffers — a mismatch demotes instead of promoting;
* any compile or runtime failure demotes the plan permanently (per plan);
  demoted plans keep running vectorized, so the native tier can never change
  results or raise where the vectorized tier would not.

Every promotion is a batch.  Inside :func:`promotion_batch` (every
``GraphProgram.run``) a promotion that falls due is queued, and the batch's
exit qualifies the queued kernels concurrently, one sandbox child per CPU the
process may use, then loads and spot-checks each in queue order.  A
promotion that falls due outside a batch is a batch of one, handled before
the run returns.  The sandbox child (:mod:`.sandbox`) is the only builder of
a promoted kernel: the host loads the library the child built and checked.

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
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.connection import wait as wait_any
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple
)

import numpy as np

from ..dsl.tensor import Tensor
from ..telemetry import trace as _trace

if TYPE_CHECKING:  # runtime import is lazy (see _lowlevel) to avoid a cycle
    from ..codegen.lowlevel import NativeSource
    from .sandbox import Qualification, SandboxVerdict
from .engine import EngineStats, ExecutablePlan
from .lower import PrimFunc
from .stmt import IntrinsicCall
from .visitor import walk


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
    "instruction_support_reason",
    "native_eligibility_reason",
    "native_toolchain",
    "promotion_batch",
    "run_tiered",
    "same_bits",
    "tier_state",
]


# ---------------------------------------------------------------------------
# Toolchain discovery
# ---------------------------------------------------------------------------


class NativeUnavailable(RuntimeError):
    """No C compiler is installed (or the native tier is disabled)."""


def _env_number(name: str, fallback: float) -> float:
    """The positive number in environment variable ``name``, else ``fallback``
    (unset, unparsable, zero or negative)."""
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        value = float(raw)
    except ValueError:
        return fallback
    return value if value > 0 else fallback


# Kernels are built for the host that runs them: ``-march=native`` is what
# defines the feature macros of the instructions the generated source calls.
# A kernel built elsewhere never reaches this process (no on-disk cache), and
# a wrong guess dies as a sandbox-classified SIGILL, not in the host.
_HOST_FLAG = "-march=native"
_CC_FLAGS = ["-O3", _HOST_FLAG, "-fwrapv", "-ffp-contract=off", "-fPIC", "-shared"]

_TOOLCHAIN_LOCK = threading.Lock()
# (kind, compiler path or reason, the flags that compiler accepts, the macros
# those flags predefine)
_Toolchain = Tuple[Optional[str], object, List[str], FrozenSet[str]]
_TOOLCHAIN: Optional[_Toolchain] = None


def _probe(compiler: str) -> Tuple[List[str], FrozenSet[str]]:
    """One preprocessor run, once per discovery: ``_CC_FLAGS`` minus
    ``-march=native`` where the compiler rejects it, and the macros it
    predefines under ``-march=native`` (none when rejected).  Losing the flag
    costs the instructions, rejecting it per kernel would cost the tier."""
    try:
        proc = subprocess.run(
            [compiler, _HOST_FLAG, "-dM", "-E", "-x", "c", os.devnull],
            capture_output=True,
            text=True,
            timeout=_cc_timeout_s(),
        )
    except (OSError, subprocess.TimeoutExpired):
        proc = None
    if proc is None or proc.returncode != 0:
        return [flag for flag in _CC_FLAGS if flag != _HOST_FLAG], frozenset()
    macros = frozenset(
        line.split()[1] for line in proc.stdout.splitlines() if line.startswith("#define ")
    )
    return list(_CC_FLAGS), macros


def _discover_toolchain() -> _Toolchain:
    if os.environ.get("REPRO_DISABLE_NATIVE"):
        return None, "native tier disabled via REPRO_DISABLE_NATIVE", [], frozenset()
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return ("cc", path, *_probe(path))
    return None, "no C compiler (cc/gcc/clang) is available", [], frozenset()


def _toolchain(refresh: bool = False) -> _Toolchain:
    global _TOOLCHAIN
    # A discovered toolchain is read without the lock: the sandbox child
    # builds with it after a fork, and a lock another host thread held at
    # the fork would never be released in the child.
    toolchain = _TOOLCHAIN
    if toolchain is not None and not refresh:
        return toolchain
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


def cc_macros() -> FrozenSet[str]:
    """The macros the probed compiler predefines under ``-march=native``
    (none where it rejects the flag): which instructions' feature macros a
    kernel may rely on."""
    return _toolchain()[3]


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


def _cc_timeout_s() -> float:
    """Wall-clock budget for one C-compiler invocation.

    A wedged ``cc`` (NFS stall, broken ccache, runaway optimizer) used to
    block promotion — and the promoting run — forever; now it raises
    ``LoweringError`` and the plan demotes like any other compile failure.
    """
    return _env_number("REPRO_NATIVE_COMPILE_TIMEOUT", _DEFAULT_COMPILE_TIMEOUT_S)


def load_kernel(source: NativeSource, so_path: str) -> NativeKernel:
    """Load a built shared object as the kernel of ``source`` — the one place
    a library becomes a :class:`NativeKernel`, in the sandbox child that
    built it, in the host that adopts it, and in :func:`compile_native`."""
    library = ctypes.CDLL(so_path)
    entry = getattr(library, source.entry)
    entry.restype = None
    entry.argtypes = [ctypes.c_void_p] * len(source.params)
    kernel = NativeKernel(source, entry)
    kernel._library = library  # keep the handle alive with the kernel
    return kernel


def _compile_c(source: NativeSource, compiler: str, stem: str) -> str:
    """Build ``source`` into ``<stem>.so`` (writing ``<stem>.c``) with
    ``cc_flags()`` under the compile timeout; returns the library path.

    Raises ``LoweringError`` when ``cc`` fails, and one caused by
    ``subprocess.TimeoutExpired`` when it runs out of time.
    """
    c_path, so_path = stem + ".c", stem + ".so"
    with open(c_path, "w") as handle:
        handle.write(source.source)
    try:
        proc = subprocess.run(
            [compiler, *cc_flags(), "-o", so_path, c_path],
            capture_output=True,
            text=True,
            timeout=_cc_timeout_s(),
        )
    except subprocess.TimeoutExpired as exc:
        raise _lowlevel().LoweringError(
            f"C compilation of {source.func_name!r} timed out after "
            f"{exc.timeout:g}s"
        ) from exc
    if proc.returncode != 0:
        raise _lowlevel().LoweringError(
            f"C compilation of {source.func_name!r} failed:\n{proc.stderr.strip()}"
        )
    return so_path


def compile_native(func: PrimFunc) -> NativeKernel:
    """Lower ``func`` to a compiled kernel with the host C toolchain, in
    this process and without qualification (promotion never calls it).

    Raises :class:`NativeUnavailable` when no toolchain exists and
    :class:`~repro.codegen.lowlevel.LoweringError` when ``func`` cannot be
    lowered or compilation fails.
    """
    kind, payload = native_toolchain()
    if kind is None:
        raise NativeUnavailable(str(payload))
    source = _lowlevel().generate_c(func)
    return load_kernel(source, _compile_c(source, str(payload), artefact_stem(source.func_name)))


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
    :class:`repro.tir.sandbox.SandboxVerdict`), or ``None`` when no
    promotion has been attempted (not yet warm, or refused as ineligible).
    ``pending`` is set while the plan waits in a :func:`promotion_batch`.
    """

    tier: str = "vectorized"
    warm_runs: int = 0
    kernel: Optional[NativeKernel] = None
    demoted: bool = False
    demotion_reason: str = ""
    sandbox_outcome: Optional[str] = None
    pending: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


# Serialises first touches of a plan, so every caller gets the one state.
_TIER_STATE_LOCK = threading.Lock()


def tier_state(plan: ExecutablePlan) -> TierState:
    """The promotion state attached to ``plan`` (created on first use)."""
    state = getattr(plan, "_tier_state", None)
    if state is None:
        with _TIER_STATE_LOCK:
            state = getattr(plan, "_tier_state", None)
            if state is None:
                state = plan._tier_state = TierState()
    return state


def native_eligibility_reason(plan: ExecutablePlan) -> Optional[str]:
    """Why ``plan`` can never promote to native, or None if it may.

    Eligibility requires the static verification tier (PR 6) to have proved
    every nest — the same proofs that elide runtime guards now license
    codegen — plus a plan with no interpreter-fallback steps, a function the
    native emitter accepts, and a C compiler whose probe defines the feature
    macro of every instruction the function calls.
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
    kind, missing = native_toolchain()
    return (
        _lowlevel().native_support_reason(plan.func)
        or (str(missing) if kind is None else None)
        or instruction_support_reason(plan.func)
    )


def instruction_support_reason(func: PrimFunc) -> Optional[str]:
    """Why a kernel built from ``func`` here could not be the hardware
    instruction (the toolchain probe lacks the feature macro of an
    instruction it calls), or None if it could.  ``func`` is one that
    :func:`~repro.codegen.lowlevel.native_support_reason` accepts."""
    macros = cc_macros()
    for stmt in walk(func.body):
        if isinstance(stmt, IntrinsicCall):
            lowering = stmt.intrin.native_lowering
            if lowering.feature_macro not in macros:
                return (
                    f"{lowering.instruction} needs {lowering.feature_macro}, "
                    "which the toolchain probe did not define"
                )
    return None


def _demote(plan: ExecutablePlan, reason: str, stats: Optional[EngineStats]) -> None:
    state = tier_state(plan)
    state.tier = "vectorized"
    state.kernel = None
    state.demoted = True
    state.demotion_reason = reason
    if stats is not None:
        stats.native_demotions += 1


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


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two results are the same bytes: equal shape, equal dtype and
    equal ``tobytes()``.

    The one comparison behind every bit-identity check (``Executor`` full
    validation, the sandbox verdict, the promotion spot check).  Unlike
    ``np.array_equal`` it tells ``-0.0`` from ``0.0`` and finds a NaN equal
    to the same NaN.
    """
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _pre_run(inputs_before: List[np.ndarray], output_before: np.ndarray) -> List[np.ndarray]:
    """Fresh copies of the buffers a promoting run consumed, in parameter order."""
    return [np.array(a, copy=True) for a in (*inputs_before, output_before)]


def _promote(
    plan: ExecutablePlan,
    inputs_before: List[np.ndarray],
    output_before: np.ndarray,
    expected: np.ndarray,
    stats: Optional[EngineStats],
    qualify: Callable[[], "SandboxVerdict"],
) -> None:
    """Qualify, load and spot-check a kernel for bit identity before promoting.

    ``qualify`` waits for the sandbox verdict on the candidate (the child
    :func:`_promote_queued` started): a kernel that fails to build,
    segfaults, OOMs, or hangs kills only that child, and the classified
    verdict becomes the demotion reason.  Qualify once, load what was
    qualified: the host ``CDLL``-loads the very library the child built and
    checked (one ``cc`` per promotion).

    ``inputs_before``/``output_before`` are the buffer values the vectorized
    run consumed; ``expected`` is the result it produced.  Running the loaded
    kernel over copies of the same inputs must reproduce ``expected`` bit for
    bit, else the plan demotes.
    """
    state = tier_state(plan)
    with _trace.span("tir.native_promote", func=plan.func.name) as promote_span:
        with _trace.span("tir.sandbox_qualify", func=plan.func.name) as sq:
            verdict = qualify()
            sq.set(outcome=verdict.outcome)
        state.sandbox_outcome = verdict.outcome
        if stats is not None:
            stats.sandbox_qualifications += 1
        if not verdict.ok:
            if stats is not None:
                stats.sandbox_rejections += 1
            promote_span.set(outcome="sandbox_rejected")
            _demote(plan, f"sandbox rejected native kernel ({verdict.describe()})", stats)
            return
        try:
            with _trace.span("tir.native_load", func=plan.func.name):
                kernel = load_kernel(verdict.source, verdict.library)
        except Exception as exc:  # OSError, injected
            promote_span.set(outcome="compile_failed")
            _demote(plan, f"native compile failed: {exc}", stats)
            return
        promote_span.set(
            instructions=",".join(kernel.source.instructions),
            tiled_nests=kernel.source.tiled_nests,
        )
        try:
            got = kernel.run(_pre_run(inputs_before, output_before))
        except Exception as exc:  # demote on *any* kernel failure
            promote_span.set(outcome="spot_check_raised")
            _demote(plan, f"native kernel raised during spot-check: {exc}", stats)
            return
        if not same_bits(got, expected):
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
    if stats is not None:
        stats.native_promotions += 1


# ---------------------------------------------------------------------------
# Promotion batches
# ---------------------------------------------------------------------------


@dataclass
class _Queued:
    """A promotion that fell due: copies of what its run consumed and
    produced (the caller's buffers move on)."""

    plan: ExecutablePlan
    inputs_before: List[np.ndarray]
    output_before: np.ndarray
    expected: np.ndarray
    stats: Optional[EngineStats]


_BATCH = threading.local()


@contextmanager
def promotion_batch() -> Iterator[None]:
    """Queue the promotions that fall due on this thread; qualify them
    concurrently when the batch exits.

    Inside a batch, a plan whose promotion falls due is marked pending and
    keeps running vectorized until the batch exits.  The exit hands the
    queue to :func:`_promote_queued`, so every plan is promoted or demoted
    when the ``with`` block is left.  Outside any batch a promotion is a
    batch of one, handled before its run returns.  A nested batch joins the
    outer one.  When the body raises, the queue is dropped (the
    plans promote on a later run) and the exception propagates; no child or
    sandbox work directory outlives the batch either way.
    """
    if getattr(_BATCH, "queue", None) is not None:
        yield
        return
    queue: List[_Queued] = []
    _BATCH.queue = queue
    try:
        yield
    except BaseException:
        _release(queue)
        raise
    finally:
        _BATCH.queue = None
    if queue:
        _promote_queued(queue)


def _release(queue: List[_Queued]) -> None:
    for item in queue:
        tier_state(item.plan).pending = False


def _width() -> int:
    """How many sandbox children a batch keeps alive: the CPUs this process may use."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _promote_queued(queue: List[_Queued]) -> None:
    """Promote or demote every queued plan: the one path to :func:`_promote`.

    Starts one sandbox child per queued plan, at most one per CPU the
    process may use alive at a time, and handles the verdicts in queue order
    under each plan's ``TierState.lock`` — so the caller must not hold one.
    No child or sandbox work directory outlives the call.
    """
    from . import sandbox

    width = _width()
    handles: List["Qualification"] = []

    def launch(first: int) -> None:
        """Start queued children while fewer than ``width`` of those not yet
        handled are alive."""
        while len(handles) < len(queue) and sum(h.running for h in handles[first:]) < width:
            item = queue[len(handles)]
            handles.append(
                sandbox.start(
                    item.plan.func, _pre_run(item.inputs_before, item.output_before), item.expected
                )
            )

    def verdict(index: int) -> "SandboxVerdict":
        handle = handles[index]
        # Keep the pool full while this child works: each exit frees a slot.
        while handle.running and len(handles) < len(queue) and handle.remaining_s > 0:
            wait_any([h.sentinel for h in handles[index:] if h.running], handle.remaining_s)
            launch(index)
        return handle.wait()

    try:
        for index, item in enumerate(queue):
            launch(index)
            state = tier_state(item.plan)
            with state.lock:
                _promote(
                    item.plan,
                    item.inputs_before,
                    item.output_before,
                    item.expected,
                    item.stats,
                    partial(verdict, index),
                )
                state.pending = False
    finally:
        for handle in handles:
            handle.close()
        _release(queue)


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
    eligible: queued in the open :func:`promotion_batch`, or a batch of one
    before this call returns.  Any native failure demotes the plan and falls
    back to the vectorized result, so this never errors where the vectorized
    tier would not.
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
            if stats is not None:
                stats.native_runs += 1
            return result

    if (
        state.demoted
        or state.pending
        or state.tier != "vectorized"
        or state.warm_runs + 1 < threshold
    ):
        result = plan.run(buffers, stats=stats, func=func)
        with state.lock:
            if not (state.demoted or state.pending):
                state.warm_runs += 1
        return result

    # This warm run crosses the threshold: keep the pre-run buffer values so
    # the freshly compiled kernel can be spot-checked on the same inputs.
    arrays = _kernel_arrays(plan, func, buffers)
    inputs_before = [np.array(a, copy=True) for a in arrays[:-1]]
    output_before = np.array(arrays[-1], copy=True)
    result = plan.run(buffers, stats=stats, func=func)
    item = None
    with state.lock:
        state.warm_runs += 1
        if (
            not state.demoted
            and not state.pending
            and state.tier == "vectorized"
            and state.warm_runs >= threshold
        ):
            reason = native_eligibility_reason(plan)
            if reason is not None:
                _demote(plan, reason, stats)
            else:
                # ``result`` is the caller's buffer, which later steps overwrite.
                state.pending = True
                expected = np.array(result, copy=True)
                item = _Queued(plan, inputs_before, output_before, expected, stats)
    # Past the lock: ``_promote_queued`` takes it, and it is not reentrant.
    if item is not None:
        batch = getattr(_BATCH, "queue", None)
        if batch is not None:
            batch.append(item)
        else:
            _promote_queued([item])
    return result
