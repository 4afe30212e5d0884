"""Crash-isolated qualification of native kernels.

PR 8's native tier compiles a lowered PrimFunc and ``CDLL``-loads the result
straight into the host process.  That is fine once the kernel is known good —
but the *first* execution of a freshly compiled kernel is exactly the moment
a miscompile shows itself, and a segfault there kills the compiling process
or the serving daemon outright.  This module moves that first contact into a
**disposable subprocess**:

* the host generates the low-level source (pure Python — it cannot crash the
  process) and forks a child;
* the child applies ``RLIMIT_AS``/``RLIMIT_CPU``, builds the source exactly
  as :func:`repro.tir.backend.compile_native` does (same compiler, flags and
  compile timeout) into its own work directory, loads it with
  :func:`~repro.tir.backend.load_kernel`, runs it once over copies of the
  caller's real buffers, compares the output bit-for-bit against the
  vectorized tier's result, and ships a verdict dict back over a pipe;
* the host watches the pipe under a wall-clock watchdog; a child whose
  compiler fails or hangs, or whose kernel segfaults, is OOM-killed, or
  hangs, becomes a *classified verdict* (``compile_error`` / ``hang`` /
  ``segfault`` / ``oom``) instead of a dead host.

:func:`start` forks the child and returns a :class:`Qualification` at once;
its :meth:`~Qualification.wait` is the watchdog, with each child's budget
counted from its own launch, so a :func:`repro.tir.backend.promotion_batch`
keeps one child per CPU working while it collects verdicts in order.  Every
promotion is such a batch (one outside a graph run is a batch of one).
:func:`qualify` is ``start(...).wait()``, the one-kernel spelling.

The child is the only builder of a promoted kernel: after a ``qualified``
verdict the promotion in :mod:`repro.tir.backend` loads in-process the very
library the child built and checked, moved out of the sandbox work
directory (``SandboxVerdict.library``).  The child is a fresh interpreter
state with nothing to corrupt and nothing to leak: whatever the candidate
kernel does — scribble over the heap, exhaust memory, spin forever — dies
with it.  It runs the kernel on one thread: a forked child has none of the
host's pool threads, and the fork guard of :mod:`repro.tir.backend` keeps
every kernel in it serial (the bytes are the same at any thread count; the
host's spot check runs the loaded kernel on every CPU).

Limits (environment, the only way to set them):

* ``REPRO_SANDBOX_TIMEOUT`` — wall-clock seconds the child may take end to
  end (default 120);
* ``REPRO_SANDBOX_MEMORY_MB`` — ``RLIMIT_AS`` headroom in MiB for the child
  beyond the forked interpreter's existing address space, a positive
  integer (default 4096);
* ``REPRO_NATIVE_COMPILE_TIMEOUT`` — seconds the child's ``cc`` may take
  (default 120; see :mod:`repro.tir.backend`).
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from ..testing import faults
from .backend import (
    _compile_c, _env_number, artefact_stem, load_kernel, native_toolchain, same_bits
)

if TYPE_CHECKING:
    from ..codegen.lowlevel import NativeSource

__all__ = [
    "Qualification",
    "SandboxVerdict",
    "default_memory_mb",
    "default_timeout_s",
    "qualify",
    "start",
]

_DEFAULT_TIMEOUT_S = 120.0
_DEFAULT_MEMORY_MB = 4096


def default_timeout_s() -> float:
    """Wall-clock budget for one qualification child."""
    return _env_number("REPRO_SANDBOX_TIMEOUT", _DEFAULT_TIMEOUT_S)


def default_memory_mb() -> int:
    """``RLIMIT_AS`` headroom in MiB for one qualification child: the
    positive integer in ``REPRO_SANDBOX_MEMORY_MB``, else the default.  A
    fraction is refused, not truncated: a 0 headroom would starve the child."""
    try:
        value = int(os.environ.get("REPRO_SANDBOX_MEMORY_MB", ""))
    except ValueError:
        return _DEFAULT_MEMORY_MB
    return value if value > 0 else _DEFAULT_MEMORY_MB


@dataclass(frozen=True)
class SandboxVerdict:
    """The outcome of qualifying one candidate kernel.

    ``outcome`` is one of ``qualified`` (safe to load in-process),
    ``mismatch`` (ran, but not bit-identical), ``compile_error``,
    ``segfault``, ``oom``, ``hang``, ``crash`` (died some other way),
    ``error`` (sandbox infrastructure failed), or ``unavailable`` (no
    toolchain / platform cannot sandbox).  Only ``qualified`` has
    ``ok=True``; every other outcome is a demotion reason.  A qualified
    verdict carries what was qualified: the generated ``source`` and the path
    of the shared ``library`` the child built from it, kept in the process's
    build directory for :func:`repro.tir.backend.load_kernel`.
    """

    ok: bool
    outcome: str
    reason: str
    elapsed_s: float = 0.0
    exitcode: Optional[int] = None
    source: Optional["NativeSource"] = field(default=None, repr=False)
    library: Optional[str] = None

    def describe(self) -> str:
        return f"{self.outcome}: {self.reason}"


# ---------------------------------------------------------------------------
# Child side
# ---------------------------------------------------------------------------


def _mapped_address_space_bytes() -> int:
    """The child's current virtual size (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/statm", "r") as handle:
            pages = int(handle.read().split()[0])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0


def _apply_rlimits(memory_mb: int, cpu_s: float) -> None:
    """Best-effort resource caps; unsupported platforms simply skip them.

    ``memory_mb`` is *headroom*: the cap is the forked interpreter's current
    address space plus ``memory_mb``.  A fork inherits the host's whole
    mapping (under a fat pytest parent that alone can exceed any sensible
    absolute cap), so an absolute ``RLIMIT_AS`` would starve compilation and
    ``CDLL`` before the candidate kernel ever ran — the limit must bound
    what the *kernel* may allocate, not what the host already had.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    ceiling = _mapped_address_space_bytes() + (memory_mb << 20)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))
    except (ValueError, OSError):  # pragma: no cover - platform quirks
        pass
    seconds = max(1, int(cpu_s))
    try:
        resource.setrlimit(resource.RLIMIT_CPU, (seconds, seconds + 1))
    except (ValueError, OSError):  # pragma: no cover - platform quirks
        pass


def _sandbox_child(conn, payload: Dict[str, object]) -> None:
    """Entry point of the disposable process (module-level: spawn-picklable).

    Sends exactly one verdict dict, or dies trying — the parent classifies
    a silent death from the exit code.
    """
    started = time.perf_counter()

    def send(ok: bool, outcome: str, reason: str) -> None:
        try:
            conn.send(
                {
                    "ok": ok,
                    "outcome": outcome,
                    "reason": reason,
                    "elapsed_s": time.perf_counter() - started,
                }
            )
        except (BrokenPipeError, OSError):  # parent gave up already
            pass

    try:
        from ..codegen.lowlevel import LoweringError

        _apply_rlimits(payload["memory_mb"], payload["cpu_s"])
        source: "NativeSource" = payload["source"]
        stem = os.path.join(str(payload["workdir"]), source.func_name)
        try:
            library = _compile_c(source, str(native_toolchain()[1]), stem)
        except LoweringError as exc:
            timed_out = isinstance(exc.__cause__, subprocess.TimeoutExpired)
            send(False, "hang" if timed_out else "compile_error", str(exc))
            return
        kernel = load_kernel(source, library)
        faults.fire("backend.qualify", func_name=source.func_name, where="sandbox")
        if same_bits(kernel.run(list(payload["arrays"])), payload["expected"]):
            send(True, "qualified", "bit-identical to the vectorized tier")
        else:
            send(False, "mismatch", "kernel output is not bit-identical to the vectorized tier")
    except MemoryError:
        send(False, "oom", f"kernel exhausted the sandbox memory limit ({payload['memory_mb']} MiB)")
    except BaseException as exc:  # noqa: BLE001 - the child must always report
        send(False, "crash", f"sandbox raised {type(exc).__name__}: {exc}")
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Host side
# ---------------------------------------------------------------------------

_FATAL_SIGNALS = {
    getattr(signal, name): name
    for name in ("SIGSEGV", "SIGBUS", "SIGILL", "SIGFPE")
    if hasattr(signal, name)
}


def _classify_exit(exitcode: Optional[int], elapsed: float) -> SandboxVerdict:
    """Turn a child's silent death into a named demotion reason."""
    if exitcode is None:
        return SandboxVerdict(False, "hang", "sandbox child never exited", elapsed, exitcode)
    if exitcode >= 0:
        return SandboxVerdict(
            False,
            "crash",
            f"sandbox exited with status {exitcode} before returning a verdict",
            elapsed,
            exitcode,
        )
    signum = -exitcode
    try:
        signame = signal.Signals(signum).name
    except ValueError:  # pragma: no cover - exotic signal numbers
        signame = f"signal {signum}"
    if signum in _FATAL_SIGNALS:
        return SandboxVerdict(
            False, "segfault", f"sandbox killed by {signame} while qualifying the kernel",
            elapsed, exitcode,
        )
    if signum == signal.SIGKILL:
        return SandboxVerdict(
            False, "oom", "sandbox killed by SIGKILL (OOM killer or resource limit)",
            elapsed, exitcode,
        )
    if hasattr(signal, "SIGXCPU") and signum == signal.SIGXCPU:
        return SandboxVerdict(
            False, "hang", "sandbox exceeded its RLIMIT_CPU budget", elapsed, exitcode
        )
    return SandboxVerdict(
        False, "crash", f"sandbox killed by {signame}", elapsed, exitcode
    )


class Qualification:
    """One kernel's qualification: a sandbox child working under its own
    wall-clock budget, or a verdict known before any fork.

    :func:`start` returns one without waiting; :meth:`wait` collects the
    verdict (watchdog, exit classification, library adoption) and closes it;
    :meth:`close` kills a child that is still alive and removes its work
    directory, so a qualification abandoned half way leaves nothing behind.
    """

    def __init__(
        self,
        verdict: Optional[SandboxVerdict] = None,
        *,
        child=None,
        conn=None,
        workdir: Optional[str] = None,
        source: Optional["NativeSource"] = None,
        timeout_s: float = 0.0,
        launched: float = 0.0,
    ) -> None:
        self._verdict = verdict
        self._child = child
        self._conn = conn
        self._workdir = workdir
        self._source = source
        self._timeout_s = timeout_s
        self._launched = launched

    @property
    def running(self) -> bool:
        """Whether the sandbox child has not exited yet."""
        return self._child is not None and self._child.is_alive()

    @property
    def sentinel(self) -> int:
        """The child's exit sentinel (for ``multiprocessing.connection.wait``)."""
        return self._child.sentinel

    @property
    def remaining_s(self) -> float:
        """Wall-clock budget left, counted from the child's launch."""
        return self._launched + self._timeout_s - time.perf_counter()

    def wait(self) -> SandboxVerdict:
        """The verdict, once the child has given it or run out of time."""
        if self._verdict is None:
            try:
                self._verdict = self._collect()
            finally:
                self.close()
        return self._verdict

    def close(self) -> None:
        """Kill the child if it is still alive and remove its work directory."""
        child, self._child = self._child, None
        if child is not None and child.is_alive():
            child.kill()
            child.join(timeout=5.0)
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)
            self._workdir = None

    def _collect(self) -> SandboxVerdict:
        child, conn = self._child, self._conn
        verdict_data: Optional[Dict[str, object]] = None
        watchdog_fired = False
        try:
            if conn.poll(max(0.0, self.remaining_s)):
                verdict_data = conn.recv()
            else:
                watchdog_fired = True
        except (EOFError, OSError):
            pass  # child died mid-send; classify from its exit code below
        if watchdog_fired and child.is_alive():
            child.kill()
            child.join(timeout=5.0)
            return SandboxVerdict(
                False,
                "hang",
                f"sandbox exceeded the {self._timeout_s:g}s wall-clock watchdog",
                time.perf_counter() - self._launched,
                child.exitcode,
            )
        child.join(timeout=5.0)  # a child wedged after its verdict dies in ``close``
        elapsed = time.perf_counter() - self._launched
        if verdict_data is None:
            return _classify_exit(child.exitcode, elapsed)
        verdict = SandboxVerdict(
            bool(verdict_data.get("ok")),
            str(verdict_data.get("outcome", "error")),
            str(verdict_data.get("reason", "")),
            elapsed,
            child.exitcode,
        )
        if not verdict.ok:
            return verdict
        # Keep what was qualified: the workdir dies in ``close``, the library
        # moves to the build directory under a name no other artefact has.
        source = self._source
        library = artefact_stem(source.func_name) + ".so"
        try:
            shutil.move(os.path.join(self._workdir, f"{source.func_name}.so"), library)
        except OSError as exc:
            return SandboxVerdict(
                False, "error", f"could not keep the qualified library: {exc}",
                elapsed, child.exitcode,
            )
        return replace(verdict, source=source, library=library)


def start(func, arrays: Sequence[np.ndarray], expected: np.ndarray) -> Qualification:
    """Generate ``func``'s C source and fork the child that builds and
    bit-checks it; returns at once.

    ``arrays`` are the kernel's buffers in parameter order (inputs plus the
    pre-run output buffer); ``expected`` is the vectorized tier's result for
    the same inputs.  The child's ``REPRO_SANDBOX_TIMEOUT`` budget counts
    from its launch.  A verdict known before any fork (``unavailable``,
    ``compile_error``, ``error``) comes back as a finished qualification.
    """
    from ..codegen import lowlevel  # lazy: codegen imports repro.tir

    kind, toolchain = native_toolchain()
    if kind is None:
        return Qualification(SandboxVerdict(False, "unavailable", str(toolchain)))
    try:
        source = lowlevel.generate_c(func)
    except lowlevel.LoweringError as exc:
        return Qualification(SandboxVerdict(False, "compile_error", str(exc)))

    timeout_s = default_timeout_s()
    workdir = tempfile.mkdtemp(prefix="repro_sandbox_")
    payload: Dict[str, object] = {
        "source": source,
        "workdir": workdir,
        "arrays": [np.ascontiguousarray(array) for array in arrays],
        "expected": np.asarray(expected),
        "memory_mb": default_memory_mb(),
        # CPU budget tracks the wall budget: a kernel that burns a full
        # wall-timeout of pure CPU is hung by definition.
        "cpu_s": timeout_s,
    }
    launched = time.perf_counter()
    try:
        ctx = multiprocessing.get_context()
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        child = ctx.Process(
            target=_sandbox_child,
            args=(send_conn, payload),
            name=f"sandbox-{source.func_name}",
            daemon=True,
        )
        child.start()
    except Exception as exc:  # cannot even fork (daemonic parent, fd limits)
        shutil.rmtree(workdir, ignore_errors=True)
        return Qualification(
            SandboxVerdict(
                False, "error", f"could not start sandbox process: {exc}",
                time.perf_counter() - launched,
            )
        )
    send_conn.close()  # child holds the write end now
    return Qualification(
        child=child,
        conn=recv_conn,
        workdir=workdir,
        source=source,
        timeout_s=timeout_s,
        launched=launched,
    )


def qualify(func, arrays: Sequence[np.ndarray], expected: np.ndarray) -> SandboxVerdict:
    """Build + bit-check ``func`` in a disposable subprocess and wait for
    the verdict: ``start(...).wait()``, the one-kernel spelling.

    Never raises for anything the candidate kernel does — every failure mode
    comes back as a :class:`SandboxVerdict`.
    """
    return start(func, arrays, expected).wait()
