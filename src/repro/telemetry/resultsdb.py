"""Sqlite results store: every bench run and its spans.

A single-file :mod:`sqlite3` database (WAL mode) that turns the one-shot
``BENCH_*.json`` artifacts into a queryable history.  Each recorded run
stores:

* ``runs`` — kind (``ledger.<workload>`` / ``service`` / ...), label,
  wall-clock timestamp, and run metadata: git revision, host, python
  version, native-toolchain availability, plus the full sanitized JSON
  payload;
* ``metrics`` — the payload flattened to dotted-path numeric leaves
  (``metrics.op_compile_ms`` for a ledger run), the paths
  ``python -m repro query trend`` takes;
* ``spans`` — finished tracer spans (name, parent, wall, exclusive,
  attributes) for per-run flame summaries;
* ``service_snapshots`` — live ``stats`` wire responses captured by
  ``repro query service --record``.

JSON sanitation: sqlite and downstream ``json.loads`` must never see NaN
or ±inf (``json.dumps`` would emit non-standard tokens), so
:func:`json_safe` maps non-finite floats to ``None`` before storage and
:func:`numeric_leaves` skips them entirely.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sqlite3
import subprocess
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "ResultsDB",
    "default_db_path",
    "json_safe",
    "numeric_leaves",
    "record_bench",
    "run_metadata",
]

DB_ENV_VAR = "REPRO_RESULTS_DB"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    kind TEXT NOT NULL,
    label TEXT,
    created_unix REAL NOT NULL,
    git_rev TEXT,
    host TEXT,
    python TEXT,
    toolchain TEXT,
    payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs(id),
    path TEXT NOT NULL,
    value REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_metrics_path ON metrics(path, run_id);
CREATE TABLE IF NOT EXISTS spans (
    run_id INTEGER NOT NULL REFERENCES runs(id),
    span_id INTEGER NOT NULL,
    parent_id INTEGER,
    name TEXT NOT NULL,
    start_s REAL NOT NULL,
    dur_s REAL NOT NULL,
    excl_s REAL NOT NULL,
    thread TEXT,
    attrs TEXT
);
CREATE INDEX IF NOT EXISTS idx_spans_run ON spans(run_id);
CREATE TABLE IF NOT EXISTS service_snapshots (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    created_unix REAL NOT NULL,
    address TEXT,
    payload TEXT NOT NULL
);
"""


def default_db_path() -> str:
    """``$REPRO_RESULTS_DB`` or ``results.db`` in the working directory."""
    return os.environ.get(DB_ENV_VAR) or "results.db"


def json_safe(data):
    """Deep-copy ``data`` with non-finite floats replaced by ``None``.

    The result round-trips through strict JSON: ``json.loads(json.dumps(x))``
    never produces ``NaN`` / ``Infinity`` tokens.
    """
    if isinstance(data, dict):
        return {str(key): json_safe(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [json_safe(value) for value in data]
    if isinstance(data, bool) or data is None or isinstance(data, (int, str)):
        return data
    if isinstance(data, float):
        return data if math.isfinite(data) else None
    return str(data)


def numeric_leaves(data, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Flatten nested dicts/lists into dotted-path -> finite-numeric pairs.

    Paths read ``a.b[0].c``: a dict key joins with ``.``, a list index is
    bracketed.
    """
    if isinstance(data, dict):
        for key, value in data.items():
            yield from numeric_leaves(value, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(data, (list, tuple)):
        for index, value in enumerate(data):
            yield from numeric_leaves(value, f"{prefix}[{index}]")
    elif isinstance(data, bool):
        return  # flags, not metrics
    elif isinstance(data, (int, float)):
        value = float(data)
        if math.isfinite(value):
            yield prefix, value


def run_metadata() -> Dict[str, str]:
    """Git revision, host, python version, and native-toolchain kind."""
    try:
        git_rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        git_rev = "unknown"
    try:
        from ..tir.backend import native_toolchain

        kind, _ = native_toolchain()
        toolchain = kind or "none"
    except Exception:
        toolchain = "unknown"
    return {
        "git_rev": git_rev,
        "host": platform.node() or "unknown",
        "python": sys.version.split()[0],
        "toolchain": toolchain,
    }


class ResultsDB:
    """One sqlite connection, WAL mode, guarded by a single lock."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path or default_db_path()
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultsDB":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- writes -------------------------------------------------------------
    def record_run(
        self,
        kind: str,
        payload: dict,
        label: Optional[str] = None,
        spans: Optional[Sequence] = None,
        metadata: Optional[Dict[str, str]] = None,
    ) -> int:
        """Persist one run: payload, flattened metrics, and its spans."""
        meta = metadata if metadata is not None else run_metadata()
        safe = json_safe(payload)
        with self._lock:
            cursor = self._conn.execute(
                "INSERT INTO runs (kind, label, created_unix, git_rev, host,"
                " python, toolchain, payload) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    kind,
                    label,
                    time.time(),
                    meta.get("git_rev"),
                    meta.get("host"),
                    meta.get("python"),
                    meta.get("toolchain"),
                    json.dumps(safe, sort_keys=True),
                ),
            )
            run_id = int(cursor.lastrowid)
            self._conn.executemany(
                "INSERT INTO metrics (run_id, path, value) VALUES (?, ?, ?)",
                [(run_id, path, value) for path, value in numeric_leaves(safe)],
            )
            if spans:
                self._conn.executemany(
                    "INSERT INTO spans (run_id, span_id, parent_id, name,"
                    " start_s, dur_s, excl_s, thread, attrs)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    [
                        (
                            run_id,
                            record.span_id,
                            record.parent_id,
                            record.name,
                            record.start_s,
                            record.dur_s,
                            record.excl_s,
                            record.thread,
                            json.dumps(json_safe(record.attrs), sort_keys=True),
                        )
                        for record in spans
                    ],
                )
            self._conn.commit()
        return run_id

    def record_service_snapshot(self, address: str, payload: dict) -> int:
        with self._lock:
            cursor = self._conn.execute(
                "INSERT INTO service_snapshots (created_unix, address, payload)"
                " VALUES (?, ?, ?)",
                (time.time(), address, json.dumps(json_safe(payload), sort_keys=True)),
            )
            self._conn.commit()
            return int(cursor.lastrowid)

    # -- queries ------------------------------------------------------------
    def runs(self, kind: Optional[str] = None, limit: int = 20) -> List[Dict]:
        """Most-recent-first run history with per-run metric/span counts."""
        query = (
            "SELECT r.id, r.kind, r.label, r.created_unix, r.git_rev, r.host,"
            " r.python, r.toolchain,"
            " (SELECT COUNT(*) FROM metrics m WHERE m.run_id = r.id),"
            " (SELECT COUNT(*) FROM spans s WHERE s.run_id = r.id)"
            " FROM runs r"
        )
        params: List = []
        if kind is not None:
            query += " WHERE r.kind = ?"
            params.append(kind)
        query += " ORDER BY r.id DESC LIMIT ?"
        params.append(limit)
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [
            {
                "id": row[0],
                "kind": row[1],
                "label": row[2],
                "created_unix": row[3],
                "git_rev": row[4],
                "host": row[5],
                "python": row[6],
                "toolchain": row[7],
                "metrics": row[8],
                "spans": row[9],
            }
            for row in rows
        ]

    def latest_run_id(self) -> Optional[int]:
        with self._lock:
            row = self._conn.execute("SELECT MAX(id) FROM runs").fetchone()
        return int(row[0]) if row and row[0] is not None else None

    def payload(self, run_id: int) -> Optional[dict]:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM runs WHERE id = ?", (run_id,)
            ).fetchone()
        return json.loads(row[0]) if row else None

    def metric_paths(self, like: Optional[str] = None) -> List[str]:
        query = "SELECT DISTINCT path FROM metrics"
        params: List = []
        if like:
            query += " WHERE path LIKE ?"
            params.append(like)
        query += " ORDER BY path"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [row[0] for row in rows]

    def metric_trend(
        self, path: str, kind: Optional[str] = None, last: int = 10
    ) -> List[Dict]:
        """The last ``last`` ``(run, timestamp, value)`` rows of each metric.

        ``path`` may contain SQL ``LIKE`` wildcards (``%``/``_``) to match a
        family; every matching path gets its own window.  Rows come sorted
        by path, oldest to newest within a path.  Exact dotted paths work
        unchanged since ``[``/``]``/``.`` are literal.
        """
        query = (
            "SELECT run_id, path, value, created_unix, git_rev FROM ("
            " SELECT m.run_id, m.path, m.value, r.created_unix, r.git_rev,"
            " ROW_NUMBER() OVER (PARTITION BY m.path ORDER BY m.run_id DESC)"
            " AS newest FROM metrics m JOIN runs r ON r.id = m.run_id"
            " WHERE m.path LIKE ?"
        )
        params: List = [path]
        if kind is not None:
            query += " AND r.kind = ?"
            params.append(kind)
        query += ") WHERE newest <= ? ORDER BY path, run_id"
        params.append(max(1, last))
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [
            {
                "run_id": run_id,
                "path": mpath,
                "value": value,
                "created_unix": created,
                "git_rev": git_rev,
            }
            for run_id, mpath, value, created, git_rev in rows
        ]

    def spans(self, run_id: int) -> List[Dict]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT span_id, parent_id, name, start_s, dur_s, excl_s,"
                " thread, attrs FROM spans WHERE run_id = ?"
                " ORDER BY start_s, span_id",
                (run_id,),
            ).fetchall()
        return [
            {
                "span_id": row[0],
                "parent_id": row[1],
                "name": row[2],
                "start_s": row[3],
                "dur_s": row[4],
                "excl_s": row[5],
                "thread": row[6],
                "attrs": json.loads(row[7]) if row[7] else {},
            }
            for row in rows
        ]

    def top_spans(self, run_id: int, n: int = 10) -> List[Dict]:
        """Top-N span names by total exclusive time for one run."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, COUNT(*), SUM(excl_s), SUM(dur_s)"
                " FROM spans WHERE run_id = ? GROUP BY name"
                " ORDER BY SUM(excl_s) DESC LIMIT ?",
                (run_id, n),
            ).fetchall()
        return [
            {"name": row[0], "calls": row[1], "excl_s": row[2], "wall_s": row[3]}
            for row in rows
        ]


def record_bench(
    kind: str,
    payload: dict,
    db_path: Optional[str] = None,
    label: Optional[str] = None,
    spans: Optional[Sequence] = None,
) -> int:
    """Record one bench run into the (default-pathed) results DB."""
    with ResultsDB(db_path) as db:
        return db.record_run(kind, payload, label=label, spans=spans)
