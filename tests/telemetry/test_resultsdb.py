"""Tests for the sqlite results store: sanitation, round-trips, trends."""

import json

import pytest

from repro.telemetry import trace
from repro.telemetry.resultsdb import (
    DB_ENV_VAR,
    ResultsDB,
    default_db_path,
    json_safe,
    numeric_leaves,
    record_bench,
    run_metadata,
)


@pytest.fixture
def db(tmp_path):
    with ResultsDB(str(tmp_path / "results.db")) as handle:
        yield handle


class TestJsonSafe:
    def test_non_finite_floats_become_none(self):
        data = {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")}
        assert json_safe(data) == {"nan": None, "inf": None, "ninf": None}

    def test_result_round_trips_strict_json(self):
        data = {
            "t": [1, 2.5, float("nan")],
            "nested": {"x": float("inf"), "ok": "text", "flag": True},
        }
        safe = json_safe(data)
        # allow_nan=False is what sqlite consumers effectively require:
        # the sanitized payload must never trip it.
        encoded = json.dumps(safe, allow_nan=False)
        assert json.loads(encoded) == safe

    def test_tuples_become_lists_and_keys_become_strings(self):
        assert json_safe({1: (1, 2)}) == {"1": [1, 2]}

    def test_unknown_objects_stringify(self):
        class Odd:
            def __repr__(self):
                return "<odd>"

        assert json_safe({"o": Odd()}) == {"o": "<odd>"}


class TestNumericLeaves:
    def test_path_syntax(self):
        payload = {"table1": [{"vector_s": 0.5, "label": "c1"}], "n": 3}
        assert dict(numeric_leaves(payload)) == {"table1[0].vector_s": 0.5, "n": 3.0}

    def test_skips_bools_and_non_finite(self):
        payload = {"flag": True, "bad": float("nan"), "ok": 1}
        assert dict(numeric_leaves(payload)) == {"ok": 1.0}


class TestResultsDB:
    def test_record_run_round_trip_with_non_finite(self, db):
        payload = {
            "benchmark": "compile_time",
            "timing_s": 1.25,
            "bad_ratio": float("nan"),
            "worse": float("inf"),
            "table1": [{"vector_s": 0.5}],
        }
        run_id = db.record_run("compile_time", payload, label="unit")
        stored = db.payload(run_id)
        assert stored["timing_s"] == 1.25
        assert stored["bad_ratio"] is None  # NaN sanitized on the way in
        assert stored["worse"] is None
        paths = db.metric_paths()
        assert "timing_s" in paths and "table1[0].vector_s" in paths
        assert "bad_ratio" not in paths  # non-finite never becomes a metric

    def test_runs_lists_most_recent_first_with_counts(self, db):
        first = db.record_run("compile_time", {"a": 1})
        second = db.record_run("service", {"b": 2, "c": 3})
        rows = db.runs()
        assert [row["id"] for row in rows] == [second, first]
        assert rows[0]["metrics"] == 2
        assert db.runs(kind="service")[0]["id"] == second
        assert db.latest_run_id() == second

    def test_run_rows_carry_metadata(self, db):
        run_id = db.record_run(
            "compile_time",
            {"a": 1},
            metadata={"git_rev": "abc123", "host": "h", "python": "3.11",
                      "toolchain": "cc"},
        )
        (row,) = [r for r in db.runs() if r["id"] == run_id]
        assert row["git_rev"] == "abc123"
        assert row["toolchain"] == "cc"

    def test_metric_trend_is_oldest_first(self, db):
        for value in (1.0, 2.0, 3.0):
            db.record_run("compile_time", {"t_s": value})
        points = db.metric_trend("t_s", kind="compile_time", last=10)
        assert [p["value"] for p in points] == [1.0, 2.0, 3.0]

    def test_metric_trend_respects_last_window(self, db):
        for value in range(6):
            db.record_run("compile_time", {"t_s": float(value)})
        points = db.metric_trend("t_s", last=3)
        assert [p["value"] for p in points] == [3.0, 4.0, 5.0]

    def test_metric_trend_gives_each_family_path_its_own_window(self, db):
        """A LIKE family spanning more paths than runs must still return the
        last K runs of every path, as a ledger run's 80 metrics do."""
        paths = [f"metrics.m{index:02d}_ms" for index in range(20)]
        for run in range(10):
            db.record_run("ledger.compile", {"metrics": {p[8:]: float(run) for p in paths}})
        points = db.metric_trend("metrics.%", last=10)
        for path in paths:
            values = [p["value"] for p in points if p["path"] == path]
            assert values == [float(run) for run in range(10)], path
        assert [p["path"] for p in points] == sorted(p["path"] for p in points)
        window = db.metric_trend("metrics.%", last=3)
        assert len(window) == 20 * 3
        assert {p["value"] for p in window} == {7.0, 8.0, 9.0}

    def test_metric_trend_filters_kind(self, db):
        db.record_run("compile_time", {"t_s": 1.0})
        db.record_run("service", {"t_s": 99.0})
        points = db.metric_trend("t_s", kind="compile_time")
        assert [p["value"] for p in points] == [1.0]

    def test_spans_round_trip_preserves_nesting(self, db):
        tracer = trace.Tracer()
        with trace.tracing(tracer):
            with trace.span("outer"):
                with trace.span("inner", outcome="promoted"):
                    pass
        run_id = db.record_run("compile_time", {"a": 1}, spans=tracer.finished())
        rows = db.spans(run_id)
        by_name = {row["name"]: row for row in rows}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner"]["attrs"] == {"outcome": "promoted"}
        top = db.top_spans(run_id)
        assert {row["name"] for row in top} == {"outer", "inner"}

    def test_opens_a_db_that_still_holds_a_verdicts_table(self, tmp_path):
        """Older DBs carry a ``verdicts`` table; it is left alone, not read."""
        import sqlite3

        path = str(tmp_path / "old.db")
        with ResultsDB(path) as db:
            first = db.record_run("compile_time", {"t_s": 1.0})
        conn = sqlite3.connect(path)
        tables = {row[0] for row in conn.execute("SELECT name FROM sqlite_master")}
        assert "verdicts" not in tables  # no longer created
        conn.execute(
            "CREATE TABLE verdicts (run_id INTEGER, metric TEXT NOT NULL,"
            " kind TEXT NOT NULL, ok INTEGER NOT NULL, fresh REAL,"
            " baseline REAL, created_unix REAL NOT NULL)"
        )
        conn.execute(
            "INSERT INTO verdicts VALUES (?, 't_s', 'lower_is_better', 1, 1.0, 1.1, 0)",
            (first,),
        )
        conn.commit()
        conn.close()
        with ResultsDB(path) as db:
            second = db.record_run("compile_time", {"t_s": 2.0})
            assert [p["value"] for p in db.metric_trend("t_s")] == [1.0, 2.0]
            assert [row["id"] for row in db.runs()] == [second, first]
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT COUNT(*) FROM verdicts").fetchone()[0] == 1
        conn.close()

    def test_service_snapshot(self, db):
        db.record_service_snapshot("127.0.0.1:1234", {"uptime_s": 5.0})
        # snapshots land in their own table, not in runs
        assert db.runs() == []

    def test_record_bench_helper(self, tmp_path):
        path = str(tmp_path / "bench.db")
        run_id = record_bench("compile_time", {"x": 1}, db_path=path, label="l")
        with ResultsDB(path) as db:
            assert db.payload(run_id) == {"x": 1}
            assert db.runs()[0]["label"] == "l"


class TestRunMetadata:
    def test_has_expected_keys_and_is_stringy(self):
        meta = run_metadata()
        assert set(meta) == {"git_rev", "host", "python", "toolchain"}
        assert all(isinstance(v, str) and v for v in meta.values())

    def test_git_missing_reads_unknown(self, monkeypatch):
        from repro.telemetry import resultsdb

        def no_git(*args, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(resultsdb.subprocess, "run", no_git)
        assert run_metadata()["git_rev"] == "unknown"

    def test_toolchain_probe_failure_reads_unknown(self, monkeypatch):
        from repro.tir import backend

        def broken():
            raise RuntimeError("probe failed")

        monkeypatch.setattr(backend, "native_toolchain", broken)
        assert run_metadata()["toolchain"] == "unknown"


class TestDefaultPath:
    def test_environment_names_the_db(self, monkeypatch, tmp_path):
        path = str(tmp_path / "env.db")
        monkeypatch.setenv(DB_ENV_VAR, path)
        assert default_db_path() == path
        run_id = record_bench("compile_time", {"x": 1})  # no db_path given
        with ResultsDB(path) as db:
            assert db.payload(run_id) == {"x": 1}

    def test_without_the_environment_it_is_results_db(self, monkeypatch):
        monkeypatch.delenv(DB_ENV_VAR, raising=False)
        assert default_db_path() == "results.db"
