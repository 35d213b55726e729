"""Checker base class and shared AST-walking helpers."""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic


def in_scope(module: Optional[str], prefixes: tuple[str, ...]) -> bool:
    """True when ``module`` is one of ``prefixes`` or inside one of them."""
    if module is None:
        return False
    return any(module == p or module.startswith(p + ".") for p in prefixes)


class Checker:
    """One lint rule: a scope predicate plus an AST walk.

    Subclasses set ``rule``, ``name``, ``description`` and ``scope``
    (the packages the rule patrols, a tuple owned by the rule's own
    module), and yield raw findings from :meth:`check`.  Suppression
    comments and the baseline are handled by the runner, not here.
    """

    rule: str = "REP000"
    name: str = "abstract"
    description: str = ""
    scope: tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        return in_scope(ctx.module, self.scope)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------

    def diag(self, ctx: FileContext, node: ast.AST, message: str,
             hint: str = "", key: str = "") -> Diagnostic:
        return Diagnostic(
            rule=self.rule, path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message, hint=hint, key=key)


class ScopeTracker(ast.NodeVisitor):
    """NodeVisitor that maintains the enclosing qualified name.

    ``self.qualname`` is ``Class.method`` style (no module prefix) —
    enough for stable baseline keys.
    """

    def __init__(self) -> None:
        self._names: list[str] = []

    @property
    def qualname(self) -> str:
        return ".".join(self._names) if self._names else "<module>"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._names.append(node.name)
        self.generic_visit(node)
        self._names.pop()

    def _visit_function(self, node) -> None:
        self._names.append(node.name)
        self.handle_function(node)
        self.generic_visit(node)
        self._names.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # Subclass hook (called before descending).
    def handle_function(self, node) -> None:
        pass


def is_generator(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when the function's own body contains a yield."""
    return any(isinstance(child, (ast.Yield, ast.YieldFrom))
               for child in own_statements(node))


def own_statements(func) -> Iterator[ast.AST]:
    """The function's body, excluding nested function/class bodies."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
