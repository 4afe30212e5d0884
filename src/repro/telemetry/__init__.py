"""Unified observability: metrics registry, span tracer, results DB, CLI.

Three cooperating layers (see the README "Observability" section):

* :mod:`repro.telemetry.metrics` — process-wide counters / gauges /
  histograms, off by default with a first-statement-early-return hot path;
* :mod:`repro.telemetry.trace` — nested spans with wall + exclusive time,
  JSONL export, and tree/flame rendering;
* :mod:`repro.telemetry.resultsdb` — sqlite (WAL) history of bench runs
  and their spans, queried by ``python -m repro query``
  (:mod:`repro.telemetry.query`, imported lazily: it needs ``click``).
"""

from . import metrics, trace
from .metrics import MetricsRegistry, collecting, register_stats_gauges
from .resultsdb import ResultsDB, default_db_path, record_bench, run_metadata
from .trace import Tracer, format_span_tree, span, top_spans, tracing

__all__ = [
    "MetricsRegistry",
    "ResultsDB",
    "Tracer",
    "collecting",
    "default_db_path",
    "format_span_tree",
    "metrics",
    "record_bench",
    "register_stats_gauges",
    "run_metadata",
    "span",
    "top_spans",
    "trace",
    "tracing",
]
