"""The one retry/backoff policy for every unreliable edge in the repo.

Every tier that waits out a transient failure — the
:class:`~repro.service.client.ServiceClient` transport and the
:class:`~repro.rewriter.store.FileLock` poll — runs on one schedule, so a
set of clients that lost the daemon together does not retry in lockstep
and hammer it back down together.

:class:`RetryPolicy` is that schedule, one immutable value object:

* **capped exponential backoff** — ``base_delay_s * multiplier**(n-1)``
  clipped to ``max_delay_s``;
* **deterministic jitter** — each delay is shrunk by up to ``jitter`` of
  itself using a hash of ``(seed, attempt)``, not a global RNG, so two
  policies with different seeds decorrelate while any single schedule is
  exactly reproducible (the chaos suite depends on that);
* **per-op deadlines** — ``deadline_s`` bounds the *total* time spent
  across attempts, independent of the attempt cap (``max_attempts=None``
  means deadline-only, which is how the file lock uses it).

Which failures are worth another attempt is the caller's decision: the
client retries transport errors only, never a server's verdict.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

__all__ = ["RetryPolicy"]


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
    """An immutable retry schedule: how often and how long.

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
