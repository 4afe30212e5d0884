#!/usr/bin/env python
"""Concurrency lint for the tuning store / service stack.

A static (stdlib ``ast``) check of the lock discipline the concurrent tiers
document and depend on.  It runs in CI next to ``python -m repro.analysis``
— the same idea applied to threads instead of loop nests: prove the
invariants once, statically, instead of hoping the stress tests hit the
interleaving.

Rules
-----

R1  **guarded state** — attributes the policy table assigns to a lock
    (e.g. ``TuningService._gate`` guards ``_inflight`` / ``_conns``) may
    only be touched inside a ``with self.<lock>:`` block.  ``__init__`` is exempt (construction
    precedes sharing).

R2  **no nested locks** — no method may enter a second ``with self.<lock>``
    while already holding a different one (lock-ordering deadlock hazard;
    in particular ``_gate`` and ``_stop_lock`` must never nest).

R3  **no bare acquire/release** — lock attributes must be used via ``with``;
    explicit ``.acquire()`` / ``.release()`` calls are only allowed inside
    the lock wrapper methods themselves (``acquire`` / ``release`` /
    ``__enter__`` / ``__exit__``).

R4  **self-deadlock** — a method must not, while holding a lock, call
    another method of the same class that acquires that same
    (non-reentrant) lock.

R5  **required critical sections** — methods the policy table lists (the
    shard-mutating surface of ``ShardedTuningStore``) must wrap their work
    in ``with self._locked(...)``.

Exit status is non-zero when any rule fires.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set

REPO = Path(__file__).resolve().parent.parent

DEFAULT_FILES = [
    "src/repro/rewriter/store.py",
    "src/repro/service/server.py",
    "src/repro/service/client.py",
    "src/repro/retry.py",
    "src/repro/testing/faults.py",
    "src/repro/telemetry/trace.py",
    "src/repro/telemetry/resultsdb.py",
]

# Constructors whose result is a lock-like object when assigned to self.
LOCK_FACTORIES = {"Lock", "RLock", "Condition", "FileLock"}

# R1 policy: file basename -> class -> lock attribute -> guarded attributes.
GUARDED: Dict[str, Dict[str, Dict[str, Set[str]]]] = {
    "server.py": {
        "TuningService": {
            "_gate": {
                "_inflight",
                "_conns",
            },
        },
    },
    # Telemetry sinks are written from every instrumented thread (engine,
    # service handlers): the tracer's finished-span list + id sequence and
    # the results DB's sqlite connection live behind one lock each.
    "trace.py": {
        "Tracer": {
            "_lock": {
                "_finished",
                "_seq",
            },
        },
    },
    "resultsdb.py": {
        "ResultsDB": {
            "_lock": {
                "_conn",
            },
        },
    },
}

# R5 policy: file basename -> class -> context-manager method -> methods that
# must contain ``with self.<cm>(...)``.
REQUIRE_LOCKED: Dict[str, Dict[str, Dict[str, Set[str]]]] = {
    "store.py": {
        "ShardedTuningStore": {
            "_locked": {
                "put",
                "_scan_shard",
                "fsck",
            },
        },
    },
}

# Methods allowed to call .acquire()/.release() on lock attributes (R3).
WRAPPER_METHODS = {"acquire", "release", "__enter__", "__exit__"}


@dataclass
class Violation:
    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.<name>`` -> name, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lock_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attributes assigned a Lock/RLock/Condition/FileLock anywhere in the class."""
    locks: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        func = node.value.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name not in LOCK_FACTORIES:
            continue
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None:
                locks.add(attr)
    return locks


def _with_locks(stmt: ast.With, lock_attrs: Set[str]) -> List[str]:
    """The self-lock names a ``with`` statement acquires (R2/R1 contexts).

    Covers ``with self._lock:`` for lock attributes and
    ``with self._locked(...):`` for context-manager factory methods.
    """
    held = []
    for item in stmt.items:
        ctx = item.context_expr
        attr = _self_attr(ctx)
        if attr is not None and attr in lock_attrs:
            held.append(attr)
        elif isinstance(ctx, ast.Call):
            attr = _self_attr(ctx.func)
            if attr is not None:
                held.append(attr)
    return held


class _MethodScanner(ast.NodeVisitor):
    """Walk one method tracking the set of locks held at each node."""

    def __init__(
        self,
        path: str,
        cls: str,
        method: str,
        lock_attrs: Set[str],
        guarded: Dict[str, Set[str]],
        violations: List[Violation],
    ) -> None:
        self.path = path
        self.cls = cls
        self.method = method
        self.lock_attrs = lock_attrs
        self.guarded = guarded
        self.violations = violations
        self.held: List[str] = []
        self.acquires: Set[str] = set()  # locks this method takes directly
        self.calls_under: Dict[str, Set[str]] = {}  # method -> locks held at call
        self.locked_cms: Set[str] = set()  # self.<cm>(...) with-contexts used

    # -- lock contexts ----------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        taken = _with_locks(node, self.lock_attrs)
        for lock in taken:
            self.acquires.add(lock)
            self.locked_cms.add(lock)
            if self.held and any(h != lock for h in self.held):
                self.violations.append(
                    Violation(
                        self.path,
                        node.lineno,
                        "R2",
                        f"{self.cls}.{self.method} acquires {lock!r} while "
                        f"holding {self.held[-1]!r} (lock-ordering hazard)",
                    )
                )
        self.held.extend(taken)
        self.generic_visit(node)
        del self.held[len(self.held) - len(taken) :]

    # -- attribute discipline ---------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr is not None and self.method != "__init__":
            for lock, attrs in self.guarded.items():
                if attr in attrs and lock not in self.held:
                    self.violations.append(
                        Violation(
                            self.path,
                            node.lineno,
                            "R1",
                            f"{self.cls}.{self.method} touches {attr!r} "
                            f"without holding {lock!r}",
                        )
                    )
        self.generic_visit(node)

    # -- calls --------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = _self_attr(func.value)
            if (
                owner is not None
                and owner in self.lock_attrs
                and func.attr in ("acquire", "release")
                and self.method not in WRAPPER_METHODS
            ):
                self.violations.append(
                    Violation(
                        self.path,
                        node.lineno,
                        "R3",
                        f"{self.cls}.{self.method} calls "
                        f"self.{owner}.{func.attr}() directly; use `with`",
                    )
                )
            callee = _self_attr(func)
            if callee is not None and self.held:
                self.calls_under.setdefault(callee, set()).update(self.held)
        self.generic_visit(node)


def lint_file(path: Path, repo_relative: str) -> List[Violation]:
    violations: List[Violation] = []
    tree = ast.parse(path.read_text(), filename=str(path))
    base = path.name
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        lock_attrs = _lock_attrs(cls)
        guarded = GUARDED.get(base, {}).get(cls.name, {})
        required = REQUIRE_LOCKED.get(base, {}).get(cls.name, {})
        if not lock_attrs and not guarded and not required:
            continue
        scanners: Dict[str, _MethodScanner] = {}
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            scanner = _MethodScanner(
                repo_relative, cls.name, item.name, lock_attrs, guarded, violations
            )
            scanner.visit(item)
            scanners[item.name] = scanner

        # R4: calling a method that re-acquires a lock we already hold.
        for name, scanner in scanners.items():
            for callee, held in scanner.calls_under.items():
                target = scanners.get(callee)
                if target is None:
                    continue
                again = held & {l for l in target.acquires if l in lock_attrs}
                for lock in sorted(again):
                    violations.append(
                        Violation(
                            repo_relative,
                            cls.lineno,
                            "R4",
                            f"{cls.name}.{name} holds {lock!r} while calling "
                            f"{callee}(), which acquires it again "
                            f"(non-reentrant deadlock)",
                        )
                    )

        # R5: required critical sections.
        for cm, methods in required.items():
            for method in sorted(methods):
                scanner = scanners.get(method)
                if scanner is None:
                    violations.append(
                        Violation(
                            repo_relative,
                            cls.lineno,
                            "R5",
                            f"{cls.name}.{method} is required to exist and "
                            f"use `with self.{cm}(...)` but was not found",
                        )
                    )
                elif cm not in scanner.locked_cms:
                    violations.append(
                        Violation(
                            repo_relative,
                            cls.lineno,
                            "R5",
                            f"{cls.name}.{method} mutates shard state without "
                            f"`with self.{cm}(...)`",
                        )
                    )
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="statically check the concurrent tiers' lock discipline"
    )
    parser.add_argument(
        "files",
        nargs="*",
        help=f"files to lint (default: {' '.join(DEFAULT_FILES)})",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="print only the verdict line"
    )
    args = parser.parse_args(argv)

    targets = args.files or [str(REPO / f) for f in DEFAULT_FILES]
    violations: List[Violation] = []
    checked = 0
    for target in targets:
        path = Path(target)
        if not path.exists():
            print(f"lint_concurrency: no such file: {target}", file=sys.stderr)
            return 2
        try:
            rel = str(path.resolve().relative_to(REPO))
        except ValueError:
            rel = str(path)
        violations.extend(lint_file(path, rel))
        checked += 1

    if not args.quiet:
        for v in violations:
            print(v.format())
    print(
        f"lint_concurrency: {checked} file(s), "
        f"{len(violations)} violation(s)"
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
