"""Float-time hygiene rule (REP501).

Simulated time is an accumulated float (``now + delay`` chains), so
two "simultaneous" timestamps computed along different arithmetic
paths need not compare equal.  Scheduling logic must order by ``<=`` /
``>=`` (plus the explicit (priority, eid) tie-breaker), never gate on
exact equality.  The engine's run-queue pre-emption check is the one
audited exception: its heap timestamps are compared against the very
``now`` they were computed from, and it carries an inline suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.visitors import Checker, ScopeTracker

#: Scheduler/pipeline modules where ``==``/``!=`` on simulated-time
#: expressions is flagged.
SCOPE = ("repro.sim", "repro.core.pipeline", "repro.core.scheduler",
         "repro.core.batcher")
#: Attribute/variable names treated as simulated-time expressions.
TIME_NAMES = frozenset({"now", "_now", "deadline", "_deadline",
                        "next_admission"})


class FloatTimeEqualityChecker(Checker):
    """REP501: no ``==``/``!=`` on simulated-time expressions."""

    rule = "REP501"
    name = "float-time-equality"
    description = ("==/!= comparison on a simulated-time expression "
                   "in scheduler/pipeline code")
    scope = SCOPE

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        findings: list[Diagnostic] = []
        checker = self

        def is_time_expr(node: ast.AST) -> bool:
            if isinstance(node, ast.Attribute):
                return node.attr in TIME_NAMES
            if isinstance(node, ast.Name):
                return node.id in TIME_NAMES
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "peek":
                return True
            if isinstance(node, ast.BinOp):
                return is_time_expr(node.left) or is_time_expr(node.right)
            return False

        class Visitor(ScopeTracker):
            def visit_Compare(self, node: ast.Compare) -> None:
                sides = [node.left] + list(node.comparators)
                for op, (left, right) in zip(node.ops,
                                             zip(sides, sides[1:])):
                    if not isinstance(op, (ast.Eq, ast.NotEq)):
                        continue
                    timeish = next((s for s in (left, right)
                                    if is_time_expr(s)), None)
                    if timeish is None:
                        continue
                    what = ctx.dotted_name(timeish) or \
                        type(timeish).__name__
                    findings.append(checker.diag(
                        ctx, node,
                        f"exact equality on simulated time "
                        f"(`{ast.unparse(node)}`) — accumulated float "
                        f"timestamps need not compare equal",
                        hint="order with <=/>= and break ties on "
                             "(priority, eid); suppress inline only "
                             "for audited same-origin comparisons",
                        key=f"{self.qualname}:{what}"))
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        yield from findings
