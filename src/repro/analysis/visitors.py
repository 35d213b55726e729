"""Checker base class and shared AST-walking helpers."""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.config import LintConfig
from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic


class Checker:
    """One lint rule: a scope predicate plus an AST walk.

    Subclasses set ``rule``, ``name`` and ``description``, decide
    applicability in :meth:`applies_to`, and yield raw findings from
    :meth:`check`.  Suppression comments and the baseline are handled
    by the runner, not here.
    """

    rule: str = "REP000"
    name: str = "abstract"
    description: str = ""

    def __init__(self, config: LintConfig):
        self.config = config

    def applies_to(self, ctx: FileContext) -> bool:
        return True

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

    ``self.qualname`` is ``Class.method`` style (no module prefix) and
    ``self.class_stack`` holds the enclosing ClassDef chain — enough for
    stable baseline keys and class-scoped pairing rules.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self.class_stack: list[ast.ClassDef] = []

    @property
    def qualname(self) -> str:
        return ".".join(self._names) if self._names else "<module>"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._names.append(node.name)
        self.class_stack.append(node)
        self.handle_class(node)
        self.generic_visit(node)
        self.class_stack.pop()
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

    # Subclass hooks (called before descending).
    def handle_class(self, node: ast.ClassDef) -> None:
        pass

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


def decorator_names(ctx: FileContext,
                    node: ast.ClassDef) -> list[tuple[str, Optional[ast.Call]]]:
    """(dotted name, call node or None) for each class decorator."""
    out = []
    for deco in node.decorator_list:
        call = deco if isinstance(deco, ast.Call) else None
        target = deco.func if call is not None else deco
        dotted = ctx.dotted_name(target)
        if dotted is not None:
            out.append((dotted, call))
    return out
