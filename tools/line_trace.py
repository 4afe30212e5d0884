#!/usr/bin/env python
"""Line tracer: which lines of a set of modules real traffic never runs.

A stdlib-only stand-in for a coverage tool (``sys.settrace`` +
``threading.settrace``).  ``run`` executes a command with a generated
``sitecustomize.py`` first on ``PYTHONPATH``, so the command and every Python
process it starts — pytest, a daemon subprocess, a forked sandbox child — is
traced.  Only frames whose file lies under one of the ``--path`` arguments are
traced line by line (the global trace function returns ``None`` for every
other frame); each process appends every line it sees for the first time to
``DATA/lines-<pid>.txt`` as it happens, so a process that is SIGKILLed still
leaves what it ran.  ``report`` unions those files and prints one table per
module: executable lines (the union of ``co_lines()`` over the module's code
objects), never-run lines, and the never-run blocks with their enclosing
function.

    PYTHONPATH=src python tools/line_trace.py run --data D \\
        --path src/repro/service -- python -m pytest -q
    PYTHONPATH=src python tools/line_trace.py run --data D \\
        --path src/repro/service -- python examples/tuning_service.py
    python tools/line_trace.py report --data D --path src/repro/service

The traced command inherits ``PYTHONPATH`` with ``D`` put first, so set any
``PYTHONPATH`` it needs on the tracer's own command line.  Runs into one
``--data`` directory accumulate.  A ``sitecustomize`` already on the
interpreter's path is shadowed while the command runs.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

SITECUSTOMIZE = '''\
import os
import sys
import threading

_DATA = os.environ.get("LINE_TRACE_DATA")
_PATHS = tuple(p for p in os.environ.get("LINE_TRACE_PATHS", "").split(os.pathsep) if p)

if _DATA and _PATHS:
    _seen = set()
    _wanted = {}
    _fd = []

    def _record(filename, lineno):
        if not _fd:
            name = os.path.join(_DATA, "lines-%d.txt" % os.getpid())
            _fd.append(os.open(name, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644))
        os.write(_fd[0], ("%s\\t%d\\n" % (os.path.abspath(filename), lineno)).encode())

    # Unlocked on purpose: two threads may both record a line (or open a
    # second fd), and the report takes the union anyway.
    def _local(frame, event, arg):
        if event == "line":
            key = (frame.f_code.co_filename, frame.f_lineno)
            if key not in _seen:
                _seen.add(key)
                _record(*key)
        return _local

    def _global(frame, event, arg):
        filename = frame.f_code.co_filename
        wanted = _wanted.get(filename)
        if wanted is None:
            wanted = _wanted[filename] = os.path.abspath(filename).startswith(_PATHS)
        return _local if wanted else None

    sys.settrace(_global)
    threading.settrace(_global)
'''


def _prefixes(paths: Sequence[str]) -> List[str]:
    """Absolute path prefixes: a directory ends in a separator, so
    ``src/repro/service`` does not match ``src/repro/service_extra.py``."""
    prefixes = []
    for path in paths:
        absolute = os.path.abspath(path)
        prefixes.append(absolute + os.sep if os.path.isdir(absolute) else absolute)
    return prefixes


def run(data: str, paths: Sequence[str], command: Sequence[str]) -> int:
    """Run ``command`` traced; returns its exit status."""
    os.makedirs(data, exist_ok=True)
    Path(data, "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(data), env.get("PYTHONPATH")) if p
    )
    env["LINE_TRACE_DATA"] = os.path.abspath(data)
    env["LINE_TRACE_PATHS"] = os.pathsep.join(_prefixes(paths))
    return subprocess.call(list(command), env=env)


def executed_lines(data: str) -> Dict[str, Set[int]]:
    """File -> every line any traced process ran."""
    seen: Dict[str, Set[int]] = {}
    for record in sorted(Path(data).glob("lines-*.txt")):
        for line in record.read_text().splitlines():
            filename, _, lineno = line.rpartition("\t")
            if filename and lineno.isdigit():
                seen.setdefault(filename, set()).add(int(lineno))
    return seen


def executable_lines(source: str, filename: str) -> Set[int]:
    """The union of ``co_lines()`` over every code object in the module
    (line 0, the module's entry instruction, is no source line)."""
    lines: Set[int] = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _scopes(tree: ast.Module) -> List[Tuple[int, int, str]]:
    """(first line, last line, qualified name) of every def and class."""
    scopes: List[Tuple[int, int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                scopes.append((first, child.end_lineno or child.lineno, name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return scopes


def _enclosing(scopes: List[Tuple[int, int, str]], line: int) -> str:
    inside = [s for s in scopes if s[0] <= line <= s[1]]
    return max(inside, key=lambda s: s[0])[2] if inside else "<module>"


def never_run_blocks(
    executable: Set[int], executed: Set[int], scopes: List[Tuple[int, int, str]]
) -> List[Tuple[int, int, int, str]]:
    """(first, last, line count, function) of every maximal never-run block:
    never-run executable lines with no run executable line between them, in
    one function."""
    blocks: List[List] = []
    current = None
    for line in sorted(executable):
        if line in executed:
            current = None
            continue
        function = _enclosing(scopes, line)
        if current is not None and current[3] == function:
            current[1] = line
            current[2] += 1
        else:
            current = [line, line, 1, function]
            blocks.append(current)
    return [tuple(block) for block in blocks]


def _modules(paths: Sequence[str]) -> Iterator[Path]:
    for path in paths:
        path = Path(path)
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def report(data: str, paths: Sequence[str]) -> str:
    """Markdown: a summary row per module, then its never-run blocks."""
    seen = executed_lines(data)
    summary = ["| module | executable | never run | run % |", "|---|---:|---:|---:|"]
    details: List[str] = []
    totals = [0, 0]
    for module in _modules(paths):
        source = module.read_text()
        executable = executable_lines(source, str(module))
        executed = seen.get(os.path.abspath(module), set()) & executable
        missed = len(executable) - len(executed)
        totals[0] += len(executable)
        totals[1] += missed
        share = 100.0 * len(executed) / len(executable) if executable else 100.0
        summary.append(f"| `{module}` | {len(executable)} | {missed} | {share:.1f} |")
        if not missed:
            continue
        details += [
            "",
            f"#### `{module}` — {len(executable)} executable, {missed} never run",
            "",
            "| never-run lines | count | function |",
            "|---|---:|---|",
        ]
        scopes = _scopes(ast.parse(source))
        for first, last, count, function in never_run_blocks(executable, executed, scopes):
            span = str(first) if first == last else f"{first}–{last}"
            details.append(f"| {span} | {count} | `{function}` |")
    summary.append(f"| **total** | {totals[0]} | {totals[1]} | "
                   f"{100.0 * (totals[0] - totals[1]) / max(totals[0], 1):.1f} |")
    return "\n".join(summary + details) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="stdlib line tracer and never-run report")
    commands = parser.add_subparsers(dest="action", required=True)
    for action in ("run", "report"):
        sub = commands.add_parser(action)
        sub.add_argument("--data", required=True, help="directory the traces accumulate in")
        sub.add_argument("--path", action="append", required=True,
                         help="a module file or package directory to trace (repeatable)")
        if action == "run":
            sub.add_argument("command", nargs=argparse.REMAINDER,
                             help="the command to trace, after `--`")
    args = parser.parse_args(argv)
    if args.action == "report":
        sys.stdout.write(report(args.data, args.path))
        return 0
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("run needs a command after `--`")
    return run(args.data, args.path, command)


if __name__ == "__main__":
    sys.exit(main())
