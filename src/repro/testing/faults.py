"""Deterministic fault injection for the tuning service and store.

The service's failure paths (socket resets, torn frames, daemon crashes,
partial shard appends, stale locks) are exactly the paths a
stress test cannot reach on demand — they depend on the kernel killing a
process at the right byte.  This module makes them *schedulable*: the
production modules call :func:`fire` at named **injection points**, and a
test arms a :class:`FaultPlan` that decides — deterministically, from a
seed — which of those calls misbehave and how.

Zero overhead when disabled
---------------------------

Every hook in ``protocol.py`` / ``server.py`` / ``store.py`` is a plain
call to :func:`fire`, whose first statement returns when no plan is armed.
The disabled cost is one global load and one list-truthiness test — no
locks, no dict lookups, no string formatting (contexts are passed as
keyword references, never rendered).

Injection points
----------------

==================  ==========================================================
``protocol.send``   before a frame hits the socket (context: ``sock``,
                    ``frame``, ``message``) — resets and torn frames
``protocol.recv``   before a frame is read (context: ``sock``) — resets and
                    delayed responses
``server.tune``     a daemon is about to lead a search (context: ``service``,
                    ``key``) — crash-mid-tune
``server.respond``  a daemon is about to answer (context: ``sock``,
                    ``response``) — delayed/withheld responses
``store.append``    a record line is about to be appended (context: ``path``,
                    ``handle``, ``line``) — partial appends (torn tails)
``store.lock``      a shard lock is about to be acquired (context: ``path``)
                    — contended/stale locks
``backend.qualify`` the sandbox child is about to run the candidate kernel
                    (context: ``func_name``, ``where="sandbox"``) —
                    segfaulting/OOMing/hanging kernels
==================  ==========================================================

Usage::

    with FaultPlan(seed=7) as plan:
        plan.on("protocol.send", reset_connection, times=1)
        plan.on("protocol.recv", delay(0.2), when=plan.chance(0.25))
        ...exercise the service...
    assert plan.fired("protocol.send") == 1

Plans nest (LIFO); rules fire independently.  Everything a plan decides —
including ``chance`` predicates — draws from the plan's own seeded
:class:`random.Random`, so a chaos run is replayed exactly by its seed.
"""

from __future__ import annotations

import errno
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "POINTS",
    "InjectedFault",
    "Injection",
    "FaultPlan",
    "fire",
    "active",
    "reset_connection",
    "torn_frame",
    "delay",
    "crash_daemon",
    "partial_append",
    "contend_lock",
    "segfault",
    "hang",
    "oom",
]

POINTS = (
    "protocol.send",
    "protocol.recv",
    "server.tune",
    "server.respond",
    "store.append",
    "store.lock",
    "backend.qualify",
)


class InjectedFault(RuntimeError):
    """Raised by canned actions that model a crash or an aborted operation.

    Distinct from any production exception type so a test can tell "the
    fault fired" from "the code under test broke".
    """


@dataclass
class Injection:
    """One firing of one rule: what fired, the how-many-th time, and the
    call-site context (sockets, paths, handles — by reference)."""

    point: str
    hits: int
    context: Dict[str, object]


@dataclass
class _Rule:
    point: str
    action: Callable[[Injection], None]
    times: Optional[int]  # firings allowed; None = unlimited
    after: int  # matches to skip before the first firing
    when: Optional[Callable[[Dict[str, object]], bool]]
    matches: int = 0
    fired: int = 0


# The armed plans, innermost last.  ``fire`` reads this without the lock —
# arming/disarming swaps the list object atomically (CPython reference
# assignment), and the disabled fast path must not pay for a lock.
_plans: List["FaultPlan"] = []
_plans_lock = threading.Lock()


def active() -> bool:
    """Whether any fault plan is currently armed."""
    return bool(_plans)


def fire(point: str, **context) -> None:
    """Production-side hook: give every armed plan a chance to misbehave.

    The no-plan fast path is a single truthiness test.  Actions run on the
    calling thread and communicate by raising (or by side effects on the
    context they were handed), so the fault surfaces exactly where the real
    failure would.
    """
    if not _plans:
        return
    for plan in reversed(_plans):
        plan._fire(point, context)


class FaultPlan:
    """A seeded set of fault rules, armed as a context manager.

    :meth:`on` registers a rule; while the plan is entered, every matching
    :func:`fire` call may trigger it.  ``times`` caps firings (default 1),
    ``after`` skips the first N matches (fail the *third* append, not the
    first), ``when`` is an extra predicate over the call context —
    :meth:`chance` builds a seeded-probability one.
    """

    def __init__(self, seed: Optional[int] = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.rules: List[_Rule] = []
        self.log: List[Injection] = []
        self._lock = threading.Lock()

    # -- configuration --------------------------------------------------------
    def on(
        self,
        point: str,
        action: Callable[[Injection], None],
        times: Optional[int] = 1,
        after: int = 0,
        when: Optional[Callable[[Dict[str, object]], bool]] = None,
    ) -> "FaultPlan":
        if point not in POINTS:
            raise ValueError(f"unknown injection point {point!r} (expected one of {POINTS})")
        if times is not None and times < 1:
            raise ValueError("times must be at least 1 (or None for unlimited)")
        if after < 0:
            raise ValueError("after must be non-negative")
        self.rules.append(_Rule(point, action, times, after, when))
        return self

    def chance(self, probability: float) -> Callable[[Dict[str, object]], bool]:
        """A ``when=`` predicate that fires with seeded probability.

        Draws from the plan's own RNG, so the whole chaos schedule is a
        pure function of the seed and the sequence of fire() calls.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        return lambda context: self.rng.random() < probability

    # -- accounting -----------------------------------------------------------
    def fired(self, point: Optional[str] = None) -> int:
        """Firings so far, optionally restricted to one point."""
        with self._lock:
            if point is None:
                return len(self.log)
            return sum(1 for injection in self.log if injection.point == point)

    # -- arming ---------------------------------------------------------------
    def __enter__(self) -> "FaultPlan":
        global _plans
        with _plans_lock:
            if self in _plans:
                raise RuntimeError("this plan is already armed")
            _plans = _plans + [self]
        return self

    def __exit__(self, *exc) -> None:
        global _plans
        with _plans_lock:
            _plans = [plan for plan in _plans if plan is not self]

    # -- firing ---------------------------------------------------------------
    def _fire(self, point: str, context: Dict[str, object]) -> None:
        # Decide under the lock (counters + RNG are shared across handler
        # threads), act outside it (actions sleep and raise).
        to_run: List[Tuple[_Rule, Injection]] = []
        with self._lock:
            for rule in self.rules:
                if rule.point != point:
                    continue
                if rule.when is not None and not rule.when(context):
                    continue
                rule.matches += 1
                if rule.matches <= rule.after:
                    continue
                if rule.times is not None and rule.fired >= rule.times:
                    continue
                rule.fired += 1
                injection = Injection(point, rule.fired, context)
                self.log.append(injection)
                to_run.append((rule, injection))
        for rule, injection in to_run:
            rule.action(injection)


# -- canned actions ------------------------------------------------------------

def reset_connection(injection: Injection) -> None:
    """The peer vanished: surface ``ECONNRESET`` at the call site."""
    raise ConnectionResetError(errno.ECONNRESET, "injected connection reset")


def torn_frame(fraction: float = 0.5) -> Callable[[Injection], None]:
    """Send a prefix of the frame, then die (``protocol.send`` only).

    The receiving peer observes a mid-frame EOF — the exact signature
    :func:`repro.service.protocol.recv_message` must classify as a
    :class:`~repro.service.protocol.ProtocolError`, never a clean close.
    """

    def action(injection: Injection) -> None:
        sock = injection.context["sock"]
        frame = injection.context["frame"]
        cut = max(1, min(len(frame) - 1, int(len(frame) * fraction)))
        sock.sendall(frame[:cut])
        raise ConnectionResetError(errno.ECONNRESET, "injected crash after torn frame")

    return action


def delay(seconds: float) -> Callable[[Injection], None]:
    """Stall the operation (drive client timeouts without a slow server)."""

    def action(injection: Injection) -> None:
        time.sleep(seconds)

    return action


def crash_daemon(injection: Injection) -> None:
    """SIGKILL-in-process for ``server.tune``: abruptly stop the service
    (no flush, no drain, connections closed) and abort the leader's search."""
    service = injection.context["service"]
    service.kill()
    raise InjectedFault("injected daemon crash mid-tune")


def partial_append(fraction: float = 0.5) -> Callable[[Injection], None]:
    """Write a prefix of the record line, fsync it, then die
    (``store.append`` only) — manufactures the torn tail the store's
    readers and ``fsck`` must tolerate."""

    def action(injection: Injection) -> None:
        handle = injection.context["handle"]
        line = injection.context["line"]
        body = line.rstrip("\n")
        cut = max(1, min(len(body) - 1, int(len(body) * fraction)))
        # Preserve any healing newline prefix the writer put in front.
        prefix = line[: len(line) - len(line.lstrip("\n"))]
        handle.write(prefix + body[:cut])
        handle.flush()
        os.fsync(handle.fileno())
        raise InjectedFault("injected crash mid-append")

    return action


def contend_lock(hold_s: float = 0.05) -> Callable[[Injection], None]:
    """Grab the shard lock first and hold it for ``hold_s`` from a
    background thread (``store.lock``), so the production acquire observes
    a contended/stale holder and must wait it out on its backoff schedule.
    Requires ``fcntl`` (POSIX) — tests should skip where it is absent."""

    def action(injection: Injection) -> None:
        import fcntl

        path = injection.context["path"]
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        fcntl.flock(fd, fcntl.LOCK_EX)

        def release() -> None:
            time.sleep(hold_s)
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

        threading.Thread(target=release, name="fault-lock-holder", daemon=True).start()

    return action


def segfault(injection: Injection) -> None:
    """Kill the calling process with a real SIGSEGV — no Python unwinding,
    no cleanup, exactly what a miscompiled kernel does.  Arm this only at
    points that run inside a disposable process (``backend.qualify`` in the
    sandbox child): fired in the host it kills the host, which is the
    failure mode the sandbox exists to absorb."""
    import signal

    os.kill(os.getpid(), signal.SIGSEGV)


def hang(seconds: float = 3600.0) -> Callable[[Injection], None]:
    """Stop making progress (an infinite loop in a kernel, a wedged search).

    Distinct from :func:`delay` in intent: the duration is chosen to outlast
    any watchdog under test, so the *watchdog* ends the wait (the sandbox's
    wall-clock timeout), never this sleep."""

    def action(injection: Injection) -> None:
        time.sleep(seconds)

    return action


def oom(limit_mb: int = 512) -> Callable[[Injection], None]:
    """Allocate until the address-space limit bites, then raise MemoryError.

    Under a sandbox ``RLIMIT_AS`` the allocations fail much earlier than
    ``limit_mb``; the cap just keeps the action bounded when no rlimit is in
    force (a test running in the host).  Either way the call site observes a
    process drowning in allocations."""

    def action(injection: Injection) -> None:
        hoard: List[bytearray] = []
        chunk = 8 << 20
        for _ in range(max(1, (limit_mb << 20) // chunk)):
            hoard.append(bytearray(chunk))
        raise MemoryError(f"injected allocation storm reached {limit_mb} MiB cap")

    return action
