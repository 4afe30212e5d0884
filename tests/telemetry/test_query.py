"""Tests for the ``python -m repro query`` CLI (plain-table path, no rich)."""

import json

import pytest

from repro.telemetry import trace
from repro.telemetry.query import main
from repro.telemetry.resultsdb import ResultsDB


@pytest.fixture
def db_path(tmp_path):
    path = str(tmp_path / "results.db")
    with ResultsDB(path) as db:
        tracer = trace.Tracer()
        with trace.tracing(tracer):
            with trace.span("bench.table1"):
                with trace.span("tir.compile_plan", func="conv"):
                    pass
        db.record_run(
            "compile_time",
            {"benchmark": "compile_time", "table1": [{"vector_s": 0.5}]},
            label="first",
            spans=tracer.finished(),
        )
        db.record_run(
            "compile_time",
            {"benchmark": "compile_time", "table1": [{"vector_s": 0.4}]},
            label="second",
        )
    return path


class TestRuns:
    def test_table_lists_both_runs(self, db_path, capsys):
        assert main(["runs", "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "first" in out and "second" in out
        assert "compile_time" in out

    def test_kind_filter_and_json(self, db_path, capsys):
        assert main(["runs", "--db", db_path, "--kind", "service", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_csv(self, db_path, capsys):
        assert main(["runs", "--db", db_path, "--format", "csv"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("id,kind,label,when")


class TestTrend:
    def test_metric_trajectory_with_delta(self, db_path, capsys):
        assert main(["trend", "table1[0].vector_s", "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "0.5" in out and "0.4" in out
        assert "-20.0%" in out  # delta vs the previous run

    def test_list_paths(self, db_path, capsys):
        assert main(["trend", "--list", "--db", db_path]) == 0
        assert "table1[0].vector_s" in capsys.readouterr().out

    def test_no_metric_defaults_to_listing(self, db_path, capsys):
        assert main(["trend", "--db", db_path]) == 0
        assert "table1[0].vector_s" in capsys.readouterr().out

    @pytest.mark.parametrize("pattern, listed", [("table1%", True), ("bench%", False)])
    def test_list_filters_paths_with_a_like_pattern(self, db_path, capsys, pattern, listed):
        assert main(["trend", pattern, "--list", "--db", db_path, "--format", "json"]) == 0
        paths = [row["path"] for row in json.loads(capsys.readouterr().out)]
        assert ("table1[0].vector_s" in paths) is listed


class TestSpans:
    def test_top_spans_defaults_to_latest_run_with_spans_absent(self, db_path, capsys):
        # latest run (id 2) has no spans: empty summary, still exit 0
        assert main(["spans", "--db", db_path]) == 0

    def test_top_spans_for_run(self, db_path, capsys):
        assert main(["spans", "--run", "1", "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "bench.table1" in out and "tir.compile_plan" in out

    def test_tree_preserves_nesting(self, db_path, capsys):
        assert main(["spans", "--run", "1", "--tree", "--db", db_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        (parent_line,) = [l for l in lines if l.startswith("bench.table1")]
        (child_line,) = [l for l in lines if "tir.compile_plan" in l]
        assert child_line.startswith("  ")  # indented under its parent
        assert "func=conv" in child_line

    def test_empty_db_is_a_clean_error(self, tmp_path, capsys):
        path = str(tmp_path / "empty.db")
        ResultsDB(path).close()
        assert main(["spans", "--db", path]) != 0
        assert "no recorded runs" in capsys.readouterr().err


class TestService:
    def test_default_port_reaches_a_daemon_on_the_default_port(self, tmp_path, capsys):
        """Regression: ``query service`` without ``--port`` used to dial
        7463 while the daemon serves on its default port."""
        from repro.service import TuningService
        from repro.service.__main__ import DEFAULT_PORT

        service = TuningService(tmp_path / "store", port=DEFAULT_PORT)
        try:
            service.start()
        except OSError as exc:
            pytest.skip(f"default port {DEFAULT_PORT} is taken on this host: {exc}")
        try:
            assert main(["service", "--format", "json"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["service"]["requests"] == {"stats": 1}
        finally:
            service.stop()

    def test_table_has_no_replication_rows(self, tmp_path, capsys):
        from repro.service import TuningService

        with TuningService(tmp_path / "store") as service:
            port = str(service.address[1])
            assert main(["service", "--port", port]) == 0
        out = capsys.readouterr().out
        assert "uptime_s" in out and "service.requests.stats" in out
        assert "role" not in out and "replication" not in out

    def test_record_stores_a_snapshot(self, tmp_path, capsys):
        import sqlite3

        from repro.service import TuningService

        path = str(tmp_path / "results.db")
        with TuningService(tmp_path / "store") as service:
            port = str(service.address[1])
            argv = ["service", "--port", port, "--record", "--db", path, "--format", "json"]
            assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("recorded service snapshot 1\n")
        conn = sqlite3.connect(path)
        try:
            ((address, payload),) = conn.execute(
                "SELECT address, payload FROM service_snapshots"
            ).fetchall()
        finally:
            conn.close()
        assert address == f"127.0.0.1:{port}"
        assert json.loads(payload)["service"]["requests"] == {"stats": 1}

    def test_service_counters_become_rows(self, tmp_path, capsys):
        from repro.service import TuningService

        with TuningService(tmp_path / "store") as service:
            assert main(["service", "--port", str(service.address[1])]) == 0
        out = capsys.readouterr().out
        assert "service.requests.stats" in out
        assert "telemetry." not in out

    def test_unreachable_daemon_is_a_clean_error(self, capsys):
        assert main(["service", "--port", "1"]) == 1
        assert "unreachable" in capsys.readouterr().err


class TestRendering:
    def test_rich_tables_when_rich_is_present(self, monkeypatch, capsys):
        """``rich`` is optional; where it is installed, tables go through it."""
        from repro.telemetry import query

        printed = []

        class FakeTable:
            def __init__(self, title=None):
                self.title, self.columns, self.rows = title, [], []

            def add_column(self, name):
                self.columns.append(name)

            def add_row(self, *cells):
                self.rows.append(cells)

        class FakeConsole:
            def print(self, table):
                printed.append(table)

        monkeypatch.setattr(query, "_HAVE_RICH", True)
        monkeypatch.setattr(query, "Table", FakeTable, raising=False)
        monkeypatch.setattr(query, "Console", FakeConsole, raising=False)
        query.format_output([("a", 1), ("b", 2.5)], ["name", "value"], title="t")
        (table,) = printed
        assert (table.title, table.columns) == ("t", ["name", "value"])
        assert table.rows == [("a", "1"), ("b", "2.5")]
        assert capsys.readouterr().out == ""
        # csv and json never go through rich
        query.format_output([("a", 1)], ["name", "value"], fmt="csv")
        assert capsys.readouterr().out.splitlines() == ["name,value", "a,1"]
        assert len(printed) == 1


class TestEntryPoint:
    def test_interrupt_exits_130(self, db_path, monkeypatch):
        def interrupted(self, kind=None, limit=20):
            raise KeyboardInterrupt

        monkeypatch.setattr(ResultsDB, "runs", interrupted)
        assert main(["runs", "--db", db_path]) == 130

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "trend" in capsys.readouterr().out

    def test_unknown_subcommand_fails(self, capsys):
        assert main(["nope"]) != 0

    def test_module_dispatch(self, db_path):
        """``python -m repro query`` must work without PYTHONPATH tricks
        beyond src on sys.path (as the CI job invokes it)."""
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "query", "runs", "--db", db_path],
            capture_output=True,
            text=True,
            cwd=os.path.join(os.path.dirname(__file__), os.pardir, os.pardir),
        )
        assert proc.returncode == 0, proc.stderr
        assert "compile_time" in proc.stdout
