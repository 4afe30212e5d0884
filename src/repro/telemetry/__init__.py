"""Unified observability: span tracer, results DB, CLI.

Two cooperating layers (see the README "Observability" section):

* :mod:`repro.telemetry.trace` — nested spans with wall + exclusive time,
  JSONL export, and tree/flame rendering;
* :mod:`repro.telemetry.resultsdb` — sqlite (WAL) history of bench runs
  and their spans, queried by ``python -m repro query``
  (:mod:`repro.telemetry.query`, imported lazily: it needs ``click``).

Counters are not kept here: each lives as a field on the object it counts
(``EngineStats``, ``PlanCache.stats``, ``TuningSession.searches_run``,
``StoreStats``, ``ServiceStats``, ...).
"""

from . import trace
from .resultsdb import ResultsDB, default_db_path, record_bench, run_metadata
from .trace import Tracer, format_span_tree, span, top_spans, tracing

__all__ = [
    "ResultsDB",
    "Tracer",
    "default_db_path",
    "format_span_tree",
    "record_bench",
    "run_metadata",
    "span",
    "top_spans",
    "trace",
    "tracing",
]
