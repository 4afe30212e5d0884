"""``python -m repro query`` — the operational query CLI.

Subcommands (all read the sqlite results DB written by the benchmarks,
except ``service`` which speaks the live wire protocol):

* ``runs``    — run history: id, kind, when, git rev, toolchain, row counts;
* ``trend``   — each matching metric's trajectory over its last K runs
  (value, delta vs the previous run, direction);
* ``spans``   — per-run flame summary (top-N names by exclusive time) or
  the full parent/child tree with ``--tree``;
* ``service`` — live daemon introspection: wraps the ``stats`` wire op and
  renders uptime, per-op request counts, and the telemetry counter
  snapshot; ``--record`` stores the snapshot in the DB.

Output formats: ``table`` (rich when importable, plain monospace
otherwise — rich is an optional dependency and must not be required),
``csv``, and ``json``.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

import click

from .resultsdb import ResultsDB, default_db_path

try:  # pragma: no cover - exercised only where rich is installed
    from rich.console import Console
    from rich.table import Table

    _HAVE_RICH = True
except ImportError:
    _HAVE_RICH = False


def _plain_table(rows: List[Sequence], columns: Sequence[str], title: str) -> str:
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(column)), *(len(row[i]) for row in cells)) if cells else len(column)
        for i, column in enumerate(columns)
    ]
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    rule = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in cells
    ]
    return "\n".join([title, header, rule, *body])


def format_output(
    rows: List[Sequence],
    columns: Sequence[str],
    fmt: str = "table",
    title: str = "",
) -> None:
    """Render rows as a rich/plain table, CSV, or JSON."""
    if fmt == "json":
        click.echo(
            json.dumps(
                [dict(zip(columns, row)) for row in rows], indent=2, sort_keys=True
            )
        )
        return
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(columns)
        writer.writerows(rows)
        click.echo(buffer.getvalue().rstrip("\n"))
        return
    if _HAVE_RICH:
        table = Table(title=title or None)
        for column in columns:
            table.add_column(str(column))
        for row in rows:
            table.add_row(*(str(cell) for cell in row))
        Console().print(table)
        return
    click.echo(_plain_table(rows, columns, title))


def _when(created_unix: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(created_unix))


_FORMAT = click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "csv", "json"]),
    default="table",
    show_default=True,
    help="output format",
)
_DB = click.option(
    "--db",
    "db_path",
    default=None,
    help="results DB path (default: $REPRO_RESULTS_DB or ./results.db)",
)


@click.group(name="query")
def query() -> None:
    """Query the telemetry results database and live services."""


@query.command()
@click.option("--kind", default=None, help="filter by run kind")
@click.option("--limit", default=20, show_default=True, help="max rows")
@_DB
@_FORMAT
def runs(kind: Optional[str], limit: int, db_path: Optional[str], fmt: str) -> None:
    """Run history, most recent first."""
    with ResultsDB(db_path) as db:
        history = db.runs(kind=kind, limit=limit)
    rows = [
        (
            run["id"],
            run["kind"],
            run["label"] or "-",
            _when(run["created_unix"]),
            run["git_rev"] or "-",
            run["toolchain"] or "-",
            run["metrics"],
            run["spans"],
        )
        for run in history
    ]
    format_output(
        rows,
        ["id", "kind", "label", "when", "git_rev", "toolchain", "metrics", "spans"],
        fmt,
        title=f"runs ({db_path or default_db_path()})",
    )


@query.command()
@click.argument("metric", required=False)
@click.option("--kind", default=None, help="restrict to one run kind")
@click.option("--last", default=10, show_default=True, help="trailing runs per path")
@click.option("--list", "list_paths", is_flag=True, help="list matching metric paths")
@_DB
@_FORMAT
def trend(
    metric: Optional[str],
    kind: Optional[str],
    last: int,
    list_paths: bool,
    db_path: Optional[str],
    fmt: str,
) -> None:
    """Each matching metric's trajectory over its last K recorded runs.

    METRIC is a dotted payload path; a ledger run recorded with
    `benchmarks/ledger/run.py --record DB` stores 'metrics.<row>'
    (e.g. 'metrics.op_compile_ms').  SQL LIKE wildcards (%/_) match
    families, such as 'metrics.%compile_ms'.
    """
    with ResultsDB(db_path) as db:
        if list_paths or metric is None:
            like = metric if metric else None
            paths = db.metric_paths(like=like)
            format_output(
                [(path,) for path in paths], ["path"], fmt, title="metric paths"
            )
            return
        points = db.metric_trend(metric, kind=kind, last=last)
    rows: List[Sequence] = []
    previous: Dict[str, float] = {}
    for point in points:
        prev = previous.get(point["path"])
        if prev is None:
            delta, arrow = "-", " "
        else:
            delta = f"{(point['value'] - prev) / prev * 100:+.1f}%" if prev else "-"
            arrow = "+" if point["value"] > prev else ("-" if point["value"] < prev else "=")
        previous[point["path"]] = point["value"]
        rows.append(
            (
                point["path"],
                point["run_id"],
                _when(point["created_unix"]),
                point["git_rev"] or "-",
                f"{point['value']:.6g}",
                delta,
                arrow,
            )
        )
    format_output(
        rows,
        ["path", "run", "when", "git_rev", "value", "delta", "dir"],
        fmt,
        title=f"trend {metric}",
    )


@query.command()
@click.option("--run", "run_id", type=int, default=None, help="run id (default: latest)")
@click.option("--top", "top_n", default=10, show_default=True, help="top-N span names")
@click.option("--tree", is_flag=True, help="print the full parent/child span tree")
@_DB
@_FORMAT
def spans(
    run_id: Optional[int],
    top_n: int,
    tree: bool,
    db_path: Optional[str],
    fmt: str,
) -> None:
    """Span flame summary (top-N exclusive-time) for one recorded run."""
    with ResultsDB(db_path) as db:
        if run_id is None:
            run_id = db.latest_run_id()
        if run_id is None:
            raise click.ClickException("results DB has no recorded runs")
        if tree:
            from .trace import SpanRecord, format_span_tree

            records = [
                SpanRecord(
                    span_id=row["span_id"],
                    parent_id=row["parent_id"],
                    name=row["name"],
                    start_s=row["start_s"],
                    dur_s=row["dur_s"],
                    excl_s=row["excl_s"],
                    thread=row["thread"] or "",
                    attrs=row["attrs"],
                )
                for row in db.spans(run_id)
            ]
            click.echo(f"span tree for run {run_id}:")
            click.echo(format_span_tree(records) or "(no spans recorded)")
            return
        summary = db.top_spans(run_id, n=top_n)
    rows = [
        (
            row["name"],
            row["calls"],
            f"{row['excl_s'] * 1e3:.3f}",
            f"{row['wall_s'] * 1e3:.3f}",
        )
        for row in summary
    ]
    format_output(
        rows,
        ["span", "calls", "excl_ms", "wall_ms"],
        fmt,
        title=f"top spans by exclusive time (run {run_id})",
    )


@query.command()
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option(
    "--port",
    type=int,
    default=None,
    help="daemon port  [default: the port `python -m repro.service serve` binds]",
)
@click.option("--record", is_flag=True, help="store the snapshot in the results DB")
@_DB
@_FORMAT
def service(
    host: str, port: Optional[int], record: bool, db_path: Optional[str], fmt: str
) -> None:
    """Live service introspection via the stats wire op."""
    from ..service.client import ServiceClient
    from ..service.protocol import DEFAULT_PORT

    if port is None:
        port = DEFAULT_PORT
    client = ServiceClient((host, port), retries=1)
    try:
        stats = client.stats()
    except Exception as exc:
        raise click.ClickException(f"service at {host}:{port} unreachable: {exc}")
    if record:
        with ResultsDB(db_path) as db:
            snap_id = db.record_service_snapshot(f"{host}:{port}", stats)
        click.echo(f"recorded service snapshot {snap_id}")
    if fmt == "json":
        click.echo(json.dumps(stats, indent=2, sort_keys=True))
        return
    rows: List[Sequence] = [
        ("uptime_s", f"{stats.get('uptime_s', 0.0):.1f}"),
    ]
    for section in ("service", "session", "store", "expr_cache"):
        for key, value in sorted(stats[section].items()):
            if isinstance(value, dict):
                for sub_key, sub_value in sorted(value.items()):
                    rows.append((f"{section}.{key}.{sub_key}", sub_value))
            else:
                rows.append((f"{section}.{key}", value))
    format_output(rows, ["metric", "value"], fmt, title=f"service {host}:{port}")


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro query``."""
    try:
        query.main(
            args=list(sys.argv[1:] if argv is None else argv),
            prog_name="python -m repro query",
            standalone_mode=False,
        )
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.Abort:
        return 130
    return 0
