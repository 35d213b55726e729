"""Observability hygiene rule (REP601).

With the ``repro.obs`` span tracer in place, *derived* timing math —
durations, queue waits, service splits — belongs inside the tracer
(``record_since`` / ``record_split``), where it is validated (no
negative spans, queue wait bounded by duration) and lands in one
exportable stream.  Ad-hoc ``env.now - t0`` arithmetic scattered through
the subsystems recreates exactly the shadow statistics the metrics
registry absorbed.

The rule flags subtraction expressions where one operand reads a
``now``/``_now`` attribute, inside the instrumented packages.  The
simulation engine and ``repro.obs`` itself own the clock and are out of
scope by omission; the handful of intentional sites (the latency
histogram sample, admission pacing) are baselined with reasons.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.visitors import Checker, ScopeTracker

#: Packages where ad-hoc ``env.now`` subtraction is flagged.  The
#: engine (repro.sim) and the tracer (repro.obs) own the clock and are
#: out of scope by omission.
SCOPE = (
    "repro.core", "repro.cpu", "repro.gpu", "repro.storage",
    "repro.dedup", "repro.compression", "repro.workload",
    "repro.bench", "repro.cluster", "repro.tenancy",
)

_NOW_NAMES = ("now", "_now")


class NowArithmeticChecker(Checker):
    """REP601: no direct ``env.now`` latency arithmetic outside sim/obs."""

    rule = "REP601"
    name = "env-now-latency-arithmetic"
    description = ("direct env.now subtraction outside the simulation "
                   "engine and the tracer")
    scope = SCOPE

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        findings: list[Diagnostic] = []
        checker = self

        def now_read(node: ast.AST) -> bool:
            return (isinstance(node, ast.Attribute)
                    and node.attr in _NOW_NAMES)

        class Visitor(ScopeTracker):
            def visit_BinOp(self, node: ast.BinOp) -> None:
                if isinstance(node.op, ast.Sub) and \
                        (now_read(node.left) or now_read(node.right)):
                    other = (node.right if now_read(node.left)
                             else node.left)
                    what = ctx.dotted_name(other) or \
                        type(other).__name__
                    findings.append(checker.diag(
                        ctx, node,
                        f"derived timing arithmetic on env.now "
                        f"(`{ast.unparse(node)}`) outside the tracer",
                        hint="record the interval with "
                             "tracer.record_since()/record_split(), or "
                             "baseline an audited intentional site",
                        key=f"{self.qualname}:{what}"))
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        yield from findings
