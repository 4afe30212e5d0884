"""Span-based tracer with parent/child nesting and exclusive-time math.

``span("tir.compile_plan", func=name)`` is a context manager.  With no
tracer installed it returns a shared immutable null object — the first
statement of :func:`span` is a global load and a ``None`` test, so
instrumentation left permanently in hot paths costs nothing in production
(the same discipline as ``testing/faults.fire``).

With a tracer installed, each thread keeps its own span stack (spans on
different threads never parent each other).  A finished span records:

* ``dur_s`` — wall-clock from ``__enter__`` to ``__exit__``;
* ``excl_s`` — ``dur_s`` minus the wall-clock of its direct children,
  i.e. time spent in this span's own code ("self time" in a flame graph);
* structured attributes (``sp.set(outcome="promoted")`` merges more).

The clock is injectable (``Tracer(clock=fake)``) so the exclusive-time
arithmetic is tested deterministically.  Finished spans append to a
lock-guarded list; export as JSONL with :meth:`Tracer.export_jsonl` or
render with :func:`format_span_tree` / :func:`top_spans`.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "SpanRecord",
    "Tracer",
    "active",
    "format_span_tree",
    "install",
    "span",
    "top_spans",
    "tracing",
    "uninstall",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as exported to JSONL and the results DB."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    dur_s: float
    excl_s: float
    thread: str
    attrs: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "excl_s": self.excl_s,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }


class _NullSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = (
        "tracer", "name", "attrs", "span_id", "parent_id", "start_s", "child_s",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.start_s = 0.0
        self.child_s = 0.0

    def set(self, **attrs) -> "_Span":
        """Merge structured attributes into the span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.span_id = tracer._next_id()
        stack = tracer._stack()
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self.start_s = tracer.clock()
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self.tracer
        end_s = tracer.clock()
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        dur_s = end_s - self.start_s
        if stack:
            stack[-1].child_s += dur_s
        tracer._record(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start_s=self.start_s,
                dur_s=dur_s,
                excl_s=dur_s - self.child_s,
                thread=threading.current_thread().name,
                attrs=self.attrs,
            )
        )
        return False


class Tracer:
    """Collects finished spans; one thread-local span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._finished: List[SpanRecord] = []
        self._seq = 0
        self._local = threading.local()

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._finished.append(record)

    def finished(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per finished span; returns the span count."""
        records = self.finished()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
        return len(records)


_ACTIVE: Optional[Tracer] = None


def active() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE


def install(tracer: Optional[Tracer] = None) -> Tracer:
    global _ACTIVE
    if tracer is None:
        tracer = Tracer()
    _ACTIVE = tracer
    return tracer


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scoped install: the previous tracer (usually ``None``) is restored."""
    global _ACTIVE
    previous = _ACTIVE
    tracer = install(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def span(name: str, **attrs):
    """Open a span; returns the shared null object when tracing is off."""
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return _Span(tracer, name, attrs)


# -- rendering ---------------------------------------------------------------


def _children(records: Sequence[SpanRecord]) -> Dict[Optional[int], List[SpanRecord]]:
    by_parent: Dict[Optional[int], List[SpanRecord]] = {}
    known = {record.span_id for record in records}
    for record in records:
        parent = record.parent_id if record.parent_id in known else None
        by_parent.setdefault(parent, []).append(record)
    for children in by_parent.values():
        children.sort(key=lambda r: (r.start_s, r.span_id))
    return by_parent


def format_span_tree(records: Sequence[SpanRecord]) -> str:
    """Indented parent/child rendering with wall and exclusive times."""
    by_parent = _children(records)
    lines: List[str] = []

    def _walk(parent: Optional[int], depth: int) -> None:
        for record in by_parent.get(parent, []):
            attrs = " ".join(f"{k}={v}" for k, v in sorted(record.attrs.items()))
            lines.append(
                "  " * depth
                + f"{record.name}  wall={record.dur_s * 1e3:.3f}ms"
                + f" excl={record.excl_s * 1e3:.3f}ms"
                + (f"  [{attrs}]" if attrs else "")
            )
            _walk(record.span_id, depth + 1)

    _walk(None, 0)
    return "\n".join(lines)


def top_spans(
    records: Sequence[SpanRecord], n: int = 10
) -> List[Tuple[str, int, float, float]]:
    """Top-N span names by total exclusive time.

    Returns ``(name, calls, total_excl_s, total_wall_s)`` rows, the flame
    summary the query CLI renders per run.
    """
    totals: Dict[str, List[float]] = {}
    for record in records:
        row = totals.setdefault(record.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += record.excl_s
        row[2] += record.dur_s
    ranked = sorted(totals.items(), key=lambda item: item[1][1], reverse=True)
    return [
        (name, int(calls), excl, wall) for name, (calls, excl, wall) in ranked[:n]
    ]
