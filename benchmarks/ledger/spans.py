"""The benchmark-side span recorder used by traced runs.

Spans are recorded around calls *into* the repository's public functions —
nothing inside ``src/`` is touched — kept in memory, and dumped as JSONL at
exit.  A layer's time is its spans' *self time*: duration minus the part
covered by child spans.  Single-threaded by design: only the orchestrating
thread records (client threads of the service bursts do not).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["Recorder", "null_span"]


@contextmanager
def null_span(name: str, **attrs) -> Iterator[None]:
    """What stands in for ``Recorder.span`` when nothing is recorded."""
    yield


class Recorder:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        parent: Optional[int] = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            # Spans of one top-level operation share its id as ``root``.
            "root": self.spans[parent]["root"] if parent is not None else len(self.spans),
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def mark(self) -> int:
        """A position in the span list; pass to :meth:`self_times` as ``since``."""
        return len(self.spans)

    def self_times(self, since: int = 0) -> Dict[str, float]:
        """Self time per span name over the spans recorded from ``since`` on."""
        covered: Dict[int, float] = defaultdict(float)
        for record in self.spans[since:]:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        totals: Dict[str, float] = defaultdict(float)
        for record in self.spans[since:]:
            totals[record["name"]] += record["end"] - record["start"] - covered[record["id"]]
        return dict(totals)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
