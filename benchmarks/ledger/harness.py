"""One ledger run: set-up, a window of rounds, the result object.

A run is one process.  Set-up (imports, inputs, references, warm-to-steady,
daemon start) happens once, outside the timed window, and is itself reported
as ``setup_s``: it is the cold path every user pays.  The window is split
into *rounds*; every round runs each enabled section once, so every metric
samples the whole window instead of owning one contiguous block of it.  A
metric is the median-anchored mean over rounds (``summarise``) of the
section's per-round, machine-speed normalised value (see ``machine.Clock``).
"""

from __future__ import annotations

import gc
import math
import statistics
import subprocess
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from . import catalog
from .machine import CAL_REF_PY_S, Clock, PeakKernel, Sample, cal_py, peak_rss_mb
from .spans import Recorder, null_span

__all__ = ["Context", "Row", "Section", "run_workload"]

MIN_ROUNDS = 3


# A round's value counts for at most this far from the run's median.  The
# median of 5-8 rounds alone wastes samples (run-to-run spread 11-18 % while
# sizing), the plain mean lets one disturbed round through (39 %); the mean of
# the clamped values read 5-16 % on the same runs, never the worst of the three.
CLAMP = 0.20


@dataclass
class Row:
    """One reported metric: the clamped mean over rounds, and what it summarises."""

    value: float
    unit: str
    n: int = 1
    median: Optional[float] = None
    q1: Optional[float] = None
    q3: Optional[float] = None
    tail: Optional[str] = None  # highest percentile with >= 10 samples beyond it

    def as_json(self) -> dict:
        out = {"value": self.value, "unit": self.unit, "n": self.n}
        if self.q1 is not None:
            out.update(median=self.median, q1=self.q1, q3=self.q3)
        if self.tail is not None:
            out["tail"] = self.tail
        return out


def summarise(values: Sequence[float], unit: str) -> Row:
    """Median-anchored mean: every sample clamped to ``median * (1 +- CLAMP)``."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    median = statistics.median(values)
    low, high = median / (1.0 + CLAMP), median * (1.0 + CLAMP)  # samples are never negative
    # Counts that read the same every round stay bit-exact: a float mean of
    # equal values need not be.
    steady = min(values) == max(values)
    value = median if steady else statistics.fmean(min(max(v, low), high) for v in values)
    row = Row(value=value, unit=unit, n=len(values))
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        row.median, row.q1, row.q3 = median, q1, q3
    if len(values) >= 20:
        # The highest percentile that still has ten samples beyond it.
        share = 1.0 - 10.0 / len(values)
        ordered = sorted(values)
        row.tail = f"p{share * 100:.1f}={ordered[int(share * len(values)) - 1]:.6g}"
    return row


@dataclass
class Context:
    """What a section needs from the run it is part of."""

    workload: str
    seed: int
    trace: bool
    scratch: str
    clock: Clock
    recorder: Optional[Recorder]
    samples: Dict[str, List[float]] = field(default_factory=dict)
    rows: Dict[str, Row] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    setup_stages: Dict[str, Sample] = field(default_factory=dict)
    traced_s: float = 0.0
    plain_s: float = 0.0

    def rng(self, purpose: str):
        """A generator that depends on the seed, the workload and ``purpose`` only."""
        import numpy as np

        return np.random.default_rng(
            [self.seed, zlib.crc32(self.workload.encode()), zlib.crc32(purpose.encode())]
        )

    def extras(self, family: str) -> bool:
        """Whether ``family``'s secondary sections run: on its own workload
        and on every traced run (which must report every per-layer metric)."""
        return self.trace or self.workload == family

    # -- operations ----------------------------------------------------------
    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    # -- samples and rows ----------------------------------------------------
    def add(self, name: str, value: float) -> None:
        """One per-round sample of a timed metric."""
        self.samples.setdefault(name, []).append(float(value))

    def set(self, name: str, value: float) -> None:
        """A metric that is a count or a one-off reading."""
        self.rows[name] = Row(value=float(value), unit=catalog.unit_of(name))

    def span(self, name: str, **attrs):
        if self.recorder is None:
            return null_span(name)
        return self.recorder.span(name, **attrs)

    def traced_vs_plain(self, traced_s: float, plain_s: float) -> None:
        """The same unit run with spans and without: feeds trace.overhead_share."""
        self.traced_s += traced_s
        self.plain_s += plain_s

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """A set-up stage: timed and normalised like a unit, once."""
        before = cal_py()
        started = time.perf_counter()
        try:
            yield
        finally:
            raw = time.perf_counter() - started
            after = cal_py()
            norm = raw * CAL_REF_PY_S / (0.5 * (before + after))
            earlier = self.setup_stages.get(name, Sample(0.0, 0.0))  # sections of one family add up
            self.setup_stages[name] = Sample(raw=earlier.raw + raw, norm=earlier.norm + norm)


class Section:
    """One family of layers measured together.  Subclasses fill these in."""

    family = ""

    def setup(self, ctx: Context) -> None:
        raise NotImplementedError

    def round(self, ctx: Context) -> None:
        raise NotImplementedError

    def finish(self, ctx: Context) -> None:
        """Untimed: counts, one-off probes, anything derived."""

    def close(self) -> None:
        """Stop whatever the section started."""


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: str,
    started: float,
    first_cal: float,
) -> Context:
    """Run one workload and return the filled-in context.

    ``started`` is ``perf_counter()`` at process entry and ``first_cal`` a
    calibration sample taken there, before the heavy imports.
    """
    from .compile_path import ModelCompile, OperatorCompile
    from .kernel_path import Kernels
    from .model_path import Models
    from .service_path import MidRoundGets, Service

    imports = time.perf_counter() - started
    after_imports = cal_py()
    with _stage_guard():
        peak_started = time.perf_counter()
        peak = PeakKernel(scratch)
        peak_build = time.perf_counter() - peak_started
    ctx = Context(
        workload=workload,
        seed=seed,
        trace=trace,
        scratch=scratch,
        clock=Clock(peak),
        recorder=Recorder() if trace else None,
    )
    ctx.setup_stages["import"] = Sample(
        raw=imports + peak_build,
        norm=(imports + peak_build) * CAL_REF_PY_S / (0.5 * (first_cal + after_imports)),
    )

    # The two compile sections come first and do their canonical-order work
    # (reference passes, call counting) before anything seeded runs anywhere,
    # so the exact metrics they set do not depend on the seed or the workload.
    service = Service()
    sections: List[Section] = [
        ModelCompile(), OperatorCompile(), MidRoundGets(service), Kernels(), Models(), service,
    ]
    try:
        for section in sections:
            with ctx.stage(section.family):
                section.setup(ctx)
        with ctx.stage("warm"):
            # One discarded round: allocator arenas, daemon and page cache reach
            # the state every later round sees (the first round reads 2-4x slow).
            for section in sections:
                section.round(ctx)
            ctx.samples.clear()
        # Everything set-up built (imports, plans, models, references: ~250 MB)
        # lives as long as the run.  Frozen, it is no longer traversed by the
        # cyclic collector, whose full passes otherwise cost ~100 ms each and
        # land inside whichever timed unit happens to allocate at that moment.
        gc.collect()
        gc.freeze()
        setup_raw = time.perf_counter() - started

        rounds = 0
        window_started = time.perf_counter()
        while True:
            gc.collect()  # between rounds, never inside a timed unit
            round_started = time.perf_counter()
            for section in sections:
                section.round(ctx)
            rounds += 1
            now = time.perf_counter()
            if rounds >= MIN_ROUNDS and (now - window_started) + 0.5 * (now - round_started) >= seconds:
                break
        window = time.perf_counter() - window_started

        for section in sections:
            section.finish(ctx)
    finally:
        for section in sections:
            section.close()

    for name, values in ctx.samples.items():
        ctx.rows[name] = summarise(values, catalog.unit_of(name))
    setup_norm = sum(stage.norm for stage in ctx.setup_stages.values())
    ctx.set("setup_s", setup_norm)
    ctx.set("setup_s.raw", setup_raw)
    for name, stage in ctx.setup_stages.items():
        ctx.set(f"setup.{name}_s", stage.norm)
    own_mb, child_mb = peak_rss_mb()
    ctx.set("peak_rss_mb", own_mb + child_mb)
    ctx.set("rss.self_mb", own_mb)
    ctx.set("rss.child_mb", child_mb)
    ctx.set("window.rounds", rounds)
    ctx.set("window.seconds", window)
    ctx.set("machine.cal_py_ms", ctx.clock.cal_median_ms("py"))
    ctx.set("machine.cal_c_ms", ctx.clock.cal_median_ms("c"))
    ctx.set("machine.cal_share", ctx.clock.cal_share)
    if trace:
        ctx.set("trace.overhead_share", ctx.traced_s / ctx.plain_s - 1.0)
    if not math.isfinite(ctx.rows["setup_s"].value):
        raise RuntimeError("set-up time is not finite")
    return ctx


@contextmanager
def _stage_guard() -> Iterator[None]:
    """Turn a missing toolchain into the one-line set-up failure it is."""
    try:
        yield
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        raise SystemExit(f"ledger set-up failed: {exc}") from exc
