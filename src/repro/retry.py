"""The one retry/backoff policy for every unreliable edge in the repo.

Before this module, each tier that could fail transiently grew its own
ad-hoc recovery loop: :class:`~repro.service.client.ServiceClient` slept a
*linear* backoff per attempt, :class:`RemoteSession` kept a fixed
reconnect cooldown, and :class:`~repro.rewriter.store.FileLock` spun on a
constant poll interval.  Three loops, three sets of constants, none of them
jittered — so a fleet of clients that lost the daemon together retried in
lockstep and hammered it back down together.

:class:`RetryPolicy` replaces all of them with one immutable value object:

* **capped exponential backoff** — ``base_delay_s * multiplier**(n-1)``
  clipped to ``max_delay_s``;
* **deterministic jitter** — each delay is shrunk by up to ``jitter`` of
  itself using a hash of ``(seed, attempt)``, not a global RNG, so two
  policies with different seeds decorrelate while any single schedule is
  exactly reproducible (the chaos suite depends on that);
* **per-op deadlines** — ``deadline_s`` bounds the *total* time spent
  across attempts, independent of the attempt cap (``max_attempts=None``
  means deadline-only, which is how the file lock uses it);
* **transient-vs-fatal classification** — :meth:`classify` decides which
  exceptions are worth another attempt; everything not explicitly listed
  as transient is fatal, because retrying a logic error only hides it.

:class:`CircuitBreaker` builds the degradation side on top of the same
backoff schedule: after ``failure_threshold`` consecutive failures the
breaker opens and stays open for an *escalating* reset timeout
(``policy.backoff_s(trips)``), then admits a single half-open probe whose
outcome either closes it or re-opens it for longer.  ``trip(forever=True)``
is the terminal state for failures that cannot heal within a process (a
protocol version mismatch).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, Type

__all__ = ["RetryPolicy", "CircuitBreaker"]


def _unit_interval(seed: int, attempt: int) -> float:
    """A deterministic sample in ``[0, 1)`` from ``(seed, attempt)``.

    ``hashlib`` rather than ``random``: the schedule must not depend on —
    or perturb — any global RNG state, and must be identical across
    processes and Python invocations (``hash()`` is salted).
    """
    blob = f"{seed}:{attempt}".encode("ascii")
    return int.from_bytes(hashlib.md5(blob).digest()[:8], "big") / 2.0**64


@dataclass(frozen=True)
class RetryPolicy:
    """An immutable retry schedule: how often, how long, and for what.

    ``max_attempts`` counts *total* tries (so ``max_attempts=1`` means no
    retry at all); ``None`` leaves the count unbounded and lets
    ``deadline_s`` be the only stop condition.  ``jitter`` is the fraction
    of each delay that deterministic jitter may shave off; ``seed``
    decorrelates independent retriers (the file lock seeds with its pid so
    contending processes do not poll in phase).
    """

    max_attempts: Optional[int] = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.25
    deadline_s: Optional[float] = None
    transient: Tuple[Type[BaseException], ...] = (OSError, TimeoutError)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1 (or None)")
        if self.max_attempts is None and self.deadline_s is None:
            raise ValueError(
                "an unbounded policy needs a deadline_s (otherwise it never stops)"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    # -- the schedule ---------------------------------------------------------
    def backoff_s(self, attempt: int) -> float:
        """The delay before retry number ``attempt`` (1-based).

        Capped exponential, then jittered *downward* so the cap is a true
        upper bound: ``delay * (1 - jitter * u)`` with ``u`` drawn
        deterministically from ``(seed, attempt)``.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        # The exponent is clamped: past ~2**128 the delay is pinned at the
        # cap anyway, and an unbounded float power would overflow first.
        raw = min(
            self.base_delay_s * self.multiplier ** min(attempt - 1, 128),
            self.max_delay_s,
        )
        if self.jitter <= 0.0:
            return raw
        return raw * (1.0 - self.jitter * _unit_interval(self.seed, attempt))

    def classify(self, exc: BaseException) -> str:
        """``"transient"`` (worth retrying) or ``"fatal"`` (re-raise now)."""
        return "transient" if isinstance(exc, self.transient) else "fatal"

    def attempts(
        self,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> Iterator[int]:
        """Yield attempt indices ``0, 1, ...``, sleeping the backoff between.

        The generator stops (without sleeping) when the attempt cap is
        reached or when the next backoff would land past ``deadline_s``;
        a pending delay is clipped to the time remaining so the deadline
        is honoured to within one sleep, never overshot by a full backoff.
        """
        start = clock()
        attempt = 0
        while True:
            yield attempt
            attempt += 1
            if self.max_attempts is not None and attempt >= self.max_attempts:
                return
            delay = self.backoff_s(attempt)
            if self.deadline_s is not None:
                remaining = self.deadline_s - (clock() - start)
                if remaining <= 0.0:
                    return
                delay = min(delay, remaining)
            sleep(delay)

    def call(
        self,
        fn: Callable[[], object],
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> object:
        """Run ``fn`` under this policy.

        Fatal exceptions propagate immediately; transient ones are retried
        on the schedule and the *last* one is re-raised when attempts (or
        the deadline) run out.
        """
        last: Optional[BaseException] = None
        for attempt in self.attempts(sleep=sleep, clock=clock):
            if attempt and on_retry is not None and last is not None:
                on_retry(attempt, last)
            try:
                return fn()
            except Exception as exc:
                if self.classify(exc) != "transient":
                    raise
                last = exc
        assert last is not None
        raise last


class CircuitBreaker:
    """Consecutive-failure breaker with escalating half-open probes.

    States (:attr:`state`):

    * ``"closed"`` — requests flow; ``failure_threshold`` *consecutive*
      failures trip it open;
    * ``"open"`` — :meth:`allow` is False until the reset timeout expires.
      The timeout escalates with consecutive trips on the shared
      :class:`RetryPolicy` schedule (``reset_timeout_s`` doubling up to
      ``max_reset_timeout_s``), so a dependency that keeps failing is
      probed less and less often;
    * ``"half_open"`` — the timeout expired; :meth:`allow` is True again so
      callers issue a probe.  :meth:`record_success` closes the breaker and
      resets the escalation; :meth:`record_failure` re-opens it for longer.

    ``trip(forever=True)`` opens the breaker permanently — the caller has
    classified the failure as unrecoverable within this process.

    Not thread-safe by itself; :class:`RemoteSession` owns one per session
    (sessions are documented single-threaded).
    """

    def __init__(
        self,
        failure_threshold: int = 1,
        reset_timeout_s: float = 5.0,
        max_reset_timeout_s: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
        seed: int = 0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.failure_threshold = failure_threshold
        self._backoff = RetryPolicy(
            max_attempts=None,
            base_delay_s=reset_timeout_s,
            max_delay_s=max_reset_timeout_s,
            multiplier=2.0,
            jitter=0.0,
            deadline_s=float("inf"),
            seed=seed,
        )
        self._clock = clock
        self._open = False
        self._opened_until = 0.0
        self.permanent = False
        self.failures = 0  # consecutive, since the last success/trip
        self.trips = 0  # consecutive, since the last success
        self.opens = 0  # lifetime count, for summaries
        self.successes = 0

    @property
    def state(self) -> str:
        if self.permanent:
            return "open"
        if not self._open:
            return "closed"
        return "open" if self._clock() < self._opened_until else "half_open"

    def allow(self) -> bool:
        """Whether a request may be issued right now (open blocks; half-open
        admits probes — every caller that arrives after the timeout may
        probe, and the first definitive outcome settles the state)."""
        return self.state != "open"

    def reset_timeout_s(self) -> float:
        """The reset timeout the *next* trip would impose."""
        return self._backoff.backoff_s(self.trips + 1)

    def record_success(self) -> None:
        self.successes += 1
        self.failures = 0
        self.trips = 0
        self._open = False

    def record_failure(self) -> None:
        self.failures += 1
        # A failed half-open probe re-opens immediately: the threshold
        # gates the first trip, not the re-trips.
        if self._open or self.failures >= self.failure_threshold:
            self.trip()

    def trip(self, forever: bool = False) -> None:
        """Open the breaker now (escalating timeout), or permanently."""
        self.opens += 1
        self._open = True
        if forever:
            self.permanent = True
            self._opened_until = float("inf")
            return
        self.trips += 1
        self._opened_until = self._clock() + self._backoff.backoff_s(self.trips)
        self.failures = 0

    def summary(self) -> str:
        return (
            f"CircuitBreaker[{self.state}]: {self.failures} failures, "
            f"{self.opens} opens, {self.successes} successes"
            + (", permanent" if self.permanent else "")
        )
