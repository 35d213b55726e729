"""Slots-coverage rule (REP301).

The hot-path modules allocate events, requests and chunks by the
million per timed run; PR 1 slotted them and the end-to-end
benchmark's descriptor workloads (``e2ebench``: ``desc_fit``,
``desc_steady``) assume they stay slotted.
A new class added to one of these modules without ``__slots__``
silently reintroduces a per-instance ``__dict__`` — correct, slower,
and invisible in review.  This rule makes it visible.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.visitors import Checker, decorator_names

#: Base-class names that exempt a class (exceptions carry ``__dict__``
#: anyway; Protocol/ABC machinery does not allocate on the hot path).
_EXEMPT_BASE_SUFFIXES = ("Error", "Exception", "Warning", "Interrupt")
_EXEMPT_BASES = frozenset({"Protocol", "Enum", "IntEnum", "NamedTuple",
                           "TypedDict"})


def _declares_slots(node: ast.ClassDef) -> bool:
    for item in node.body:
        if isinstance(item, ast.Assign):
            targets = [t.id for t in item.targets
                       if isinstance(t, ast.Name)]
            if "__slots__" in targets:
                return True
        elif isinstance(item, ast.AnnAssign) \
                and isinstance(item.target, ast.Name) \
                and item.target.id == "__slots__":
            return True
    return False


def _dataclass_slots(ctx: FileContext, node: ast.ClassDef) -> bool:
    """True when a ``@dataclass(slots=True)`` decorator is present."""
    for dotted, call in decorator_names(ctx, node):
        if dotted.split(".")[-1] != "dataclass":
            continue
        if call is None:
            return False
        for kw in call.keywords:
            if kw.arg == "slots" and isinstance(kw.value, ast.Constant):
                return bool(kw.value.value)
        return False
    return False


def _is_exempt(ctx: FileContext, node: ast.ClassDef) -> bool:
    for base in node.bases:
        dotted = ctx.dotted_name(base) or ""
        name = dotted.split(".")[-1]
        if name in _EXEMPT_BASES or name.endswith(_EXEMPT_BASE_SUFFIXES):
            return True
    return False


class SlotsCoverageChecker(Checker):
    """REP301: hot-path classes must declare ``__slots__``."""

    rule = "REP301"
    name = "slots-coverage"
    description = ("class in a hot-path module lacks __slots__ "
                   "(per-instance __dict__ on the allocation path)")

    def applies_to(self, ctx: FileContext) -> bool:
        return self.config.in_scope(ctx.module, self.config.slots_modules)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _declares_slots(node) or _dataclass_slots(ctx, node):
                continue
            if _is_exempt(ctx, node):
                continue
            yield self.diag(
                ctx, node,
                f"class `{node.name}` in a hot-path module has no "
                f"__slots__ declaration",
                hint="declare __slots__ (or @dataclass(slots=True)); "
                     "every subclass must declare its own additions",
                key=node.name)
