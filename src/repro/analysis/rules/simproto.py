"""Simulation-protocol rules (REP201, REP203).

The engine's contract with its processes is narrow: yield Events only,
and never reach past the run-queue API into the private calendar.  Each
fast path from DESIGN.md §7 turns a violation of that contract from
"slow" into "silently wrong", so the contract is linted.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.visitors import (
    Checker,
    ScopeTracker,
    is_generator,
    own_statements,
)

#: Private Environment/Event scheduling API (run-queue bypass).
_PRIVATE_ENGINE_CALLS = frozenset({"_schedule", "_trigger_now"})


def _is_literal(node: ast.AST) -> bool:
    """True for expressions that are certainly not Event instances."""
    if isinstance(node, (ast.Constant, ast.JoinedStr, ast.Tuple,
                         ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp, ast.GeneratorExp,
                         ast.Lambda)):
        return True
    if isinstance(node, ast.BinOp):
        return _is_literal(node.left) and _is_literal(node.right)
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        return True
    return False


class YieldNonEventChecker(Checker):
    """REP201: process generators must only yield Event subclasses.

    In process-scoped modules a generator is (with overwhelming odds) a
    simulation process; yielding a literal, a comparison, or nothing at
    all hands the engine a non-event and fails at dispatch time with a
    context-free error.  Data generators (workload streams, chunkers)
    live outside the scope.
    """

    rule = "REP201"
    name = "simproto-yield-non-event"
    description = ("simulation process yields a value that cannot be "
                   "an Event (literal, comparison, bare yield)")

    def applies_to(self, ctx: FileContext) -> bool:
        return self.config.in_scope(ctx.module, self.config.process_scope)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        findings: list[Diagnostic] = []
        checker = self

        class Visitor(ScopeTracker):
            def handle_function(self, node) -> None:
                if not is_generator(node):
                    return
                for sub in own_statements(node):
                    if not isinstance(sub, ast.Yield):
                        continue
                    if sub.value is None:
                        findings.append(checker.diag(
                            ctx, sub,
                            "bare `yield` in a simulation process "
                            "hands the engine None, not an Event",
                            hint="yield an Event/Timeout, or move "
                                 "pure-data generators out of the "
                                 "process scope",
                            key=f"{self.qualname}:bare-yield"))
                    elif _is_literal(sub.value):
                        findings.append(checker.diag(
                            ctx, sub,
                            "simulation process yields a literal — "
                            "processes may only yield Event subclasses",
                            hint="wrap work in env.timeout()/"
                                 "env.event()/resource requests",
                            key=f"{self.qualname}:literal-yield"))

        Visitor().visit(ctx.tree)
        yield from findings


class PrivateEngineApiChecker(Checker):
    """REP203: no calls into the engine's private calendar API.

    ``Environment._schedule`` and ``Event._trigger_now`` bypass the
    public run-queue discipline; outside ``repro.sim`` their use must
    be an explicit, baselined decision (there is none today: the timed
    hold and the batch fan-out live inside ``repro.sim`` — DESIGN.md §7).
    """

    rule = "REP203"
    name = "simproto-private-engine-api"
    description = ("call into the private scheduling API (_schedule / "
                   "_trigger_now) outside repro.sim")

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.module is None:
            return False
        return not self.config.in_scope(
            ctx.module, self.config.engine_private_scope)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        findings: list[Diagnostic] = []
        checker = self

        class Visitor(ScopeTracker):
            def visit_Call(self, node: ast.Call) -> None:
                if isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _PRIVATE_ENGINE_CALLS:
                    findings.append(checker.diag(
                        ctx, node,
                        f"`{node.func.attr}()` is private engine API — "
                        f"it bypasses the run-queue scheduling "
                        f"discipline",
                        hint="use succeed()/fail()/timeout(); if the "
                             "fast path is deliberate, record it in "
                             "the baseline with a reason",
                        key=f"{self.qualname}:{node.func.attr}"))
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        yield from findings
