"""Traversals and the mutator over tensor-IR statements.

These are the traversal workhorses used by the tensorize replacement pass,
the codegen and the cost models.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from .stmt import (
    Allocate,
    AttrStmt,
    For,
    IfThenElse,
    SeqStmt,
    Stmt,
)

__all__ = ["StmtMutator", "walk", "collect", "count_nodes"]


class StmtMutator:
    """Rebuild a statement tree; override ``mutate_<node>`` to transform."""

    def mutate(self, stmt: Stmt) -> Stmt:
        method = getattr(self, f"mutate_{type(stmt).__name__.lower()}", None)
        if method is not None:
            return method(stmt)
        return self.generic_mutate(stmt)

    def generic_mutate(self, stmt: Stmt) -> Stmt:
        if isinstance(stmt, For):
            body = self.mutate(stmt.body)
            if body is stmt.body:
                return stmt
            return For(stmt.var, stmt.extent, body, stmt.kind, stmt.thread_tag, stmt.pragmas)
        if isinstance(stmt, SeqStmt):
            new = [self.mutate(s) for s in stmt.stmts]
            if all(a is b for a, b in zip(new, stmt.stmts)):
                return stmt
            return SeqStmt(new)
        if isinstance(stmt, IfThenElse):
            then_case = self.mutate(stmt.then_case)
            else_case = self.mutate(stmt.else_case) if stmt.else_case is not None else None
            if then_case is stmt.then_case and else_case is stmt.else_case:
                return stmt
            return IfThenElse(stmt.condition, then_case, else_case, stmt.likely)
        if isinstance(stmt, AttrStmt):
            body = self.mutate(stmt.body)
            if body is stmt.body:
                return stmt
            return AttrStmt(stmt.key, stmt.value, body)
        if isinstance(stmt, Allocate):
            body = self.mutate(stmt.body)
            if body is stmt.body:
                return stmt
            return Allocate(stmt.tensor, body, stmt.scope)
        # Leaves: Store, IntrinsicCall
        return stmt

    # Named hooks subclasses override.
    def mutate_for(self, stmt: For) -> Stmt:
        return self.generic_mutate(stmt)

    def mutate_seqstmt(self, stmt: SeqStmt) -> Stmt:
        return self.generic_mutate(stmt)

    def mutate_attrstmt(self, stmt: AttrStmt) -> Stmt:
        return self.generic_mutate(stmt)


def _children(stmt: Stmt) -> List[Stmt]:
    if isinstance(stmt, For):
        return [stmt.body]
    if isinstance(stmt, SeqStmt):
        return list(stmt.stmts)
    if isinstance(stmt, IfThenElse):
        out = [stmt.then_case]
        if stmt.else_case is not None:
            out.append(stmt.else_case)
        return out
    if isinstance(stmt, (AttrStmt, Allocate)):
        return [stmt.body]
    return []


def walk(stmt: Stmt) -> Iterator[Stmt]:
    """Yield every statement node in pre-order."""
    yield stmt
    for child in _children(stmt):
        yield from walk(child)


def collect(stmt: Stmt, predicate: Callable[[Stmt], bool]) -> List[Stmt]:
    """All nodes satisfying ``predicate``, in pre-order."""
    return [s for s in walk(stmt) if predicate(s)]


def count_nodes(stmt: Stmt, node_type: Optional[type] = None) -> int:
    """Number of nodes (optionally of a specific type) in the tree."""
    if node_type is None:
        return sum(1 for _ in walk(stmt))
    return sum(1 for s in walk(stmt) if isinstance(s, node_type))
