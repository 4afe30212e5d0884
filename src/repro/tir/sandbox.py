"""Crash-isolated qualification of native kernels.

PR 8's native tier compiles a lowered PrimFunc and ``CDLL``-loads the result
straight into the host process.  That is fine once the kernel is known good —
but the *first* execution of a freshly compiled kernel is exactly the moment
a miscompile shows itself, and a segfault there kills the tuning worker or
the serving daemon outright.  This module moves that first contact into a
**disposable subprocess**:

* the host generates the low-level source (pure Python — it cannot crash the
  process) and forks a child;
* the child applies ``RLIMIT_AS``/``RLIMIT_CPU``, compiles the source with
  the toolchain and flags every kernel is built with, runs it once over pickled
  copies of the caller's real buffers, compares the output bit-for-bit
  against the vectorized tier's result, and ships a verdict dict back over a
  pipe;
* the host watches the pipe under a wall-clock watchdog; a child that
  segfaults, is OOM-killed, or hangs becomes a *classified verdict*
  (``segfault`` / ``oom`` / ``hang``) instead of a dead host.

Only after a ``qualified`` verdict does :func:`repro.tir.backend._try_promote`
load the kernel in-process — the very library the child built and checked,
moved out of the sandbox work directory (``SandboxVerdict.library``), not a
second compile of the same source.  The child is a fresh interpreter state with
nothing to corrupt and nothing to leak: whatever the candidate kernel does —
scribble over the heap, exhaust memory, spin forever — dies with it.

Knobs (environment):

* ``REPRO_DISABLE_SANDBOX`` — skip qualification and trust the in-process
  spot check alone (the pre-PR-9 behaviour);
* ``REPRO_SANDBOX_TIMEOUT`` — wall-clock seconds the child may take end to
  end (default 120);
* ``REPRO_SANDBOX_MEMORY_MB`` — ``RLIMIT_AS`` headroom for the child beyond
  the forked interpreter's existing address space (default 4096).
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import shutil
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..testing import faults

if TYPE_CHECKING:
    from ..codegen.lowlevel import NativeSource

__all__ = [
    "SandboxVerdict",
    "default_memory_mb",
    "default_timeout_s",
    "qualify",
    "sandbox_enabled",
]

_DEFAULT_TIMEOUT_S = 120.0
_DEFAULT_MEMORY_MB = 4096


def sandbox_enabled() -> bool:
    """Whether promotion runs the sandboxed qualification step."""
    return not os.environ.get("REPRO_DISABLE_SANDBOX")


def _env_number(name: str, fallback: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        value = float(raw)
    except ValueError:
        return fallback
    return value if value > 0 else fallback


def default_timeout_s() -> float:
    """Wall-clock budget for one qualification child."""
    return _env_number("REPRO_SANDBOX_TIMEOUT", _DEFAULT_TIMEOUT_S)


def default_memory_mb() -> int:
    """``RLIMIT_AS`` headroom for one qualification child."""
    return int(_env_number("REPRO_SANDBOX_MEMORY_MB", _DEFAULT_MEMORY_MB))


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


class _SandboxCompileError(RuntimeError):
    pass


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
    if memory_mb:
        ceiling = _mapped_address_space_bytes() + (int(memory_mb) << 20)
        try:
            resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))
        except (ValueError, OSError):  # pragma: no cover - platform quirks
            pass
    if cpu_s:
        seconds = max(1, int(cpu_s))
        try:
            resource.setrlimit(resource.RLIMIT_CPU, (seconds, seconds + 1))
        except (ValueError, OSError):  # pragma: no cover - platform quirks
            pass


def _materialise(payload: Dict[str, object]):
    """Compile the shipped source inside the child; returns a callable."""
    faults.fire("backend.compile", func_name=payload["func_name"], where="sandbox")
    workdir = str(payload["workdir"])
    c_path = os.path.join(workdir, f"{payload['func_name']}.c")
    so_path = str(payload["library"])
    with open(c_path, "w") as handle:
        handle.write(str(payload["source"]))
    proc = subprocess.run(
        [str(payload["compiler"]), *payload["cc_flags"], "-o", so_path, c_path],
        capture_output=True,
        text=True,
        timeout=float(payload["compile_timeout_s"]),
    )
    if proc.returncode != 0:
        raise _SandboxCompileError(
            f"C compilation of {payload['func_name']!r} failed:\n{proc.stderr.strip()}"
        )
    library = ctypes.CDLL(so_path)
    entry = getattr(library, payload["entry"])
    entry.restype = None
    entry._library = library  # keep the handle alive alongside the callable
    return entry


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
        _apply_rlimits(int(payload["memory_mb"]), float(payload["cpu_s"]))
        arrays: List[np.ndarray] = list(payload["arrays"])
        expected: np.ndarray = payload["expected"]
        try:
            entry = _materialise(payload)
        except subprocess.TimeoutExpired:
            send(False, "hang", f"C compiler exceeded {payload['compile_timeout_s']}s in the sandbox")
            return
        except _SandboxCompileError as exc:
            send(False, "compile_error", str(exc))
            return
        faults.fire("backend.qualify", func_name=payload["func_name"], where="sandbox")
        entry(*[array.ctypes.data_as(ctypes.c_void_p) for array in arrays])
        if np.array_equal(arrays[-1], expected):
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


def qualify(
    func,
    arrays: Sequence[np.ndarray],
    expected: np.ndarray,
    *,
    timeout_s: Optional[float] = None,
    memory_mb: Optional[int] = None,
    compile_timeout_s: Optional[float] = None,
) -> SandboxVerdict:
    """Compile + bit-check ``func`` in a disposable subprocess.

    ``arrays`` are the kernel's buffers in parameter order (inputs plus the
    pre-run output buffer); ``expected`` is the vectorized tier's result for
    the same inputs.  Never raises for anything the candidate kernel does —
    every failure mode comes back as a :class:`SandboxVerdict`.
    """
    from ..codegen import lowlevel  # lazy: codegen imports repro.tir
    from .backend import _compile_timeout_s, artefact_stem, cc_flags, native_toolchain

    kind, toolchain = native_toolchain()
    if kind is None:
        return SandboxVerdict(False, "unavailable", str(toolchain))
    try:
        source = lowlevel.generate_c(func)
    except lowlevel.LoweringError as exc:
        return SandboxVerdict(False, "compile_error", str(exc))

    timeout_s = timeout_s if timeout_s is not None else default_timeout_s()
    memory_mb = memory_mb if memory_mb is not None else default_memory_mb()
    if compile_timeout_s is None:
        compile_timeout_s = min(_compile_timeout_s(), timeout_s)
    workdir = tempfile.mkdtemp(prefix="repro_sandbox_")
    payload: Dict[str, object] = {
        "compiler": str(toolchain),
        "cc_flags": cc_flags(),
        "source": source.source,
        "entry": source.entry,
        "func_name": source.func_name,
        "workdir": workdir,
        "library": os.path.join(workdir, f"{source.func_name}.so"),
        "arrays": [np.ascontiguousarray(array) for array in arrays],
        "expected": np.asarray(expected),
        "memory_mb": memory_mb,
        # CPU budget tracks the wall budget: a kernel that burns a full
        # wall-timeout of pure CPU is hung by definition.
        "cpu_s": timeout_s,
        "compile_timeout_s": compile_timeout_s,
    }
    start = time.perf_counter()
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
        return SandboxVerdict(
            False, "error", f"could not start sandbox process: {exc}",
            time.perf_counter() - start,
        )
    try:
        send_conn.close()  # child holds the write end now
        verdict_data: Optional[Dict[str, object]] = None
        watchdog_fired = False
        try:
            if recv_conn.poll(timeout_s):
                verdict_data = recv_conn.recv()
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
                f"sandbox exceeded the {timeout_s:g}s wall-clock watchdog",
                time.perf_counter() - start,
                child.exitcode,
            )
        child.join(timeout=5.0)
        if child.is_alive():  # pragma: no cover - verdict sent but exit wedged
            child.kill()
            child.join(timeout=5.0)
        elapsed = time.perf_counter() - start
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
        # Keep what was qualified: the workdir dies below, the library moves
        # to the build directory under a name no other artefact has.
        library = artefact_stem(source.func_name) + ".so"
        try:
            shutil.move(str(payload["library"]), library)
        except OSError as exc:
            return SandboxVerdict(
                False, "error", f"could not keep the qualified library: {exc}",
                elapsed, child.exitcode,
            )
        return replace(verdict, source=source, library=library)
    finally:
        recv_conn.close()
        shutil.rmtree(workdir, ignore_errors=True)
