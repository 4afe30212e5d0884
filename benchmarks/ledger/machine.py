"""Machine-speed calibration: the two calibrators and the bracket helper.

Effective CPU speed on the shared 2-vCPU boxes this ledger runs on drifts by
up to 2x on a 10-60 s timescale (contention, not descheduling), so a raw
wall time cannot carry a 10 % gate.  Every timed unit is therefore bracketed
by *calibration samples* — a fixed piece of work whose time tracks the
machine's current speed — and reported as::

    t_norm = t_raw * CAL_REF / mean(bracketing calibration samples)

``CAL_REF`` is frozen at the median the builder measured, so normalised
values still read as milliseconds on a machine of that speed.  The
calibrator must resemble the work: ``cal_py`` (an allocation / dict / sort
loop) brackets Python- and numpy-dominated units, ``cal_c`` (the roofline
microkernel of ``peak.c``) brackets native C kernels.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

# numpy and repro are imported inside the functions that need them: the first
# ``cal_py`` sample is taken before the heavy imports so that set-up time can
# be normalised like everything else.

__all__ = [
    "CAL_REF_PY_S",
    "CAL_REF_C_S",
    "PEAK_MACS_PER_CALL",
    "Sample",
    "PeakKernel",
    "Clock",
    "cal_py",
    "find_cc",
    "peak_rss_mb",
]

# Frozen reference durations of one calibration sample (builder's medians on
# the 2-vCPU Xeon @ 2.1 GHz sandbox, python 3.11).  Changing them rescales
# every normalised metric, so they change only together with a re-baseline.
CAL_REF_PY_S = 5.60e-3
CAL_REF_C_S = 3.40e-3

# Calibration must be dense to help at all: with one 3 ms sample per second
# of work the ratio was *worse* than raw; from 15 % of timed time upward it
# was equal or better on every section.  Half goes before a unit, half after.
CAL_SHARE = 0.15

_PEAK_N = 16384  # bytes per operand: both fit in L1 with room to spare
_PEAK_REPS = 8000
PEAK_MACS_PER_CALL = _PEAK_N * _PEAK_REPS


def cal_py() -> float:
    """One Python-side calibration sample; returns its duration in seconds.

    Allocation-heavy on purpose (lists, strings, a dict, a sort): the
    compile path is dominated by small-object churn, and a register-only
    spin tracked it markedly worse (5.8 % vs 2.3 % residual spread).

    The cyclic collector is paused for the sample: the table below survives
    long enough to be promoted, and in a process with a large heap that
    provokes a full collection (~20 ms) every few samples — inside the
    calibrator, where it reads as a 3x slower machine.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: Dict[int, list] = {}
        for i in range(20000):
            table[(i * 7919) % 6007] = [i, str(i), (i, i + 1)]
        order = sorted(table, key=lambda k: table[k][0])
        total = 0
        for key in order:
            total += len(table[key][1])
        elapsed = time.perf_counter() - started
        del table, order
    finally:
        if collecting:
            gc.enable()
    if total <= 0:  # keeps the loop's result observable
        raise AssertionError("calibration loop produced no work")
    return elapsed


def find_cc() -> Optional[str]:
    """The C compiler the native tier would use, else the first on PATH."""
    from repro.tir import native_toolchain

    kind, payload = native_toolchain()
    if kind == "cc":
        return str(payload)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


class PeakKernel:
    """``peak.c`` built with ``cc -O3 -march=native`` and loaded via ctypes."""

    def __init__(self, build_dir: str) -> None:
        import numpy as np

        compiler = find_cc()
        if compiler is None:
            raise RuntimeError("no C compiler found: cannot build the roofline microkernel")
        source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "peak.c")
        self.library_path = os.path.join(build_dir, "ledger_peak.so")
        subprocess.run(
            [compiler, "-O3", "-march=native", "-fPIC", "-shared", "-o", self.library_path, source],
            check=True,
            capture_output=True,
            timeout=120,
        )
        self._lib = ctypes.CDLL(self.library_path)
        self._fn = self._lib.ledger_peak
        self._fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64]
        self._fn.restype = ctypes.c_int32
        rng = np.random.default_rng(20210227)
        # Kept alive for as long as native code may read them.
        self._a = np.ascontiguousarray(rng.integers(0, 256, _PEAK_N, dtype=np.uint8))
        self._b = np.ascontiguousarray(rng.integers(-128, 128, _PEAK_N, dtype=np.int8))
        exact = int(self._a.astype(np.int64) @ self._b.astype(np.int64)) * _PEAK_REPS
        self._expected = (exact + 2**31) % 2**32 - 2**31  # int32 wraparound
        if self._call() != self._expected:
            raise RuntimeError("roofline microkernel computed a wrong dot product")

    def _call(self) -> int:
        return int(self._fn(self._a.ctypes.data, self._b.ctypes.data, _PEAK_N, _PEAK_REPS))

    def sample(self) -> float:
        """One C-side calibration sample (>= 3 ms); returns seconds."""
        started = time.perf_counter()
        got = self._call()
        elapsed = time.perf_counter() - started
        if got != self._expected:
            raise RuntimeError("roofline microkernel computed a wrong dot product")
        return elapsed


@dataclass(frozen=True)
class Sample:
    """One timed unit: raw seconds and machine-speed-normalised seconds."""

    raw: float
    norm: float


class Clock:
    """The bracket/normalise helper every section uses.

    ``timed(key, fn)`` takes calibration samples, runs ``fn`` once, takes
    calibration samples again and returns ``(fn's result, Sample)``.  The
    number of samples on each side follows the unit's own last duration so
    calibration stays at ``CAL_SHARE`` of timed time whatever the unit's size;
    back-to-back units share the samples between them.
    """

    # Speed drifts over seconds, so samples this fresh still describe "now".
    REUSE_WITHIN_S = 0.05

    def __init__(self, peak: Optional[PeakKernel]) -> None:
        self.peak = peak
        self._per_side: Dict[str, int] = {}
        self._latest: Tuple[str, int, float, float] = ("", 0, 0.0, 0.0)  # kind, count, mean, when
        self._unit_since_latest = True  # a unit ran after ``_latest`` was taken
        self.cal_samples: Dict[str, List[float]] = {"py": [], "c": []}
        self.timed_s = 0.0
        self.cal_s = 0.0
        self.log = []

    def _calibrate(self, kind: str, count: int) -> float:
        latest_kind, latest_count, latest_mean, when = self._latest
        if (
            not self._unit_since_latest  # else a short unit's "after" would be its own "before"
            and latest_kind == kind
            and latest_count >= count
            and time.perf_counter() - when < self.REUSE_WITHIN_S
        ):
            return latest_mean
        if kind == "py":
            values = [cal_py() for _ in range(count)]
        else:
            if self.peak is None:
                raise RuntimeError("cal_c requested but the roofline microkernel is not built")
            values = [self.peak.sample() for _ in range(count)]
        self.cal_samples[kind].extend(values)
        self.log.append(("cal." + kind, time.perf_counter(), values))
        self.cal_s += sum(values)
        mean = sum(values) / len(values)
        self._latest = (kind, count, mean, time.perf_counter())
        self._unit_since_latest = False
        return mean

    def timed(self, key: str, fn: Callable[[], object], cal: str = "py") -> Tuple[object, Sample]:
        ref = CAL_REF_PY_S if cal == "py" else CAL_REF_C_S
        before = self._calibrate(cal, self._per_side.get(key, 1))
        started = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - started
        self._unit_since_latest = True
        self.log.append((key, time.perf_counter(), raw))
        per_side = max(1, math.ceil(0.5 * CAL_SHARE * raw / ref))
        self._per_side[key] = per_side
        after = self._calibrate(cal, per_side)
        self.timed_s += raw
        return result, Sample(raw=raw, norm=raw * ref / (0.5 * (before + after)))

    def cal_median_ms(self, kind: str) -> float:
        values = self.cal_samples[kind]
        return statistics.median(values) * 1e3 if values else float("nan")

    @property
    def cal_share(self) -> float:
        """Calibration time as a share of timed time (should be >= CAL_SHARE)."""
        return self.cal_s / self.timed_s if self.timed_s else 0.0


def peak_rss_mb() -> Tuple[float, float]:
    """Peak resident set of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0  # ru_maxrss is KiB on Linux
