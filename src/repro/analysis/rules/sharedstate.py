"""Module-level shared-state rule (REP704).

A module-level mutable object is process-global state: every pipeline
instance in the process shares it, and the planned per-shard
``multiprocessing`` executor will copy-on-fork it into workers whose
mutations silently diverge from the parent.  Inside the hot-path
packages state lives on an instance whose ownership is explicit.

The rule is syntactic on purpose: module-level ``x = {}`` / ``x = []``
/ ``x = OrderedDict()`` bindings (and comprehension results) in scope,
minus dunder names; package scope approximates pipeline reachability.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.visitors import Checker

#: Constructors whose call produces a mutable container.
_MUTABLE_CTORS = {
    "dict", "list", "set", "bytearray", "collections.OrderedDict",
    "collections.defaultdict", "collections.deque",
    "collections.Counter", "OrderedDict", "defaultdict", "deque",
    "Counter",
}

_MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp)


class ModuleStateChecker(Checker):
    """REP704: no module-level mutable state in hot paths."""

    rule = "REP704"
    name = "module-mutable-state"
    description = ("module-level mutable container in a pipeline "
                   "hot-path package (shared state)")

    def applies_to(self, ctx: FileContext) -> bool:
        return self.config.in_scope(ctx.module,
                                    self.config.shared_state_scope)

    def _is_mutable(self, ctx: FileContext, value: ast.AST) -> bool:
        if isinstance(value, _MUTABLE_LITERALS):
            return True
        if isinstance(value, ast.Call):
            dotted = ctx.resolve(value.func) or \
                ctx.dotted_name(value.func)
            return dotted in _MUTABLE_CTORS
        return False

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                targets = [t for t in stmt.targets
                           if isinstance(t, ast.Name)]
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name) and stmt.value:
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            if not self._is_mutable(ctx, value):
                continue
            for target in targets:
                name = target.id
                if name.startswith("__") and name.endswith("__"):
                    continue
                yield self.diag(
                    ctx, stmt,
                    f"module-level mutable `{name}` is process-global "
                    "shared state in a pipeline hot-path package",
                    hint="move it onto an owning instance",
                    key=name)
