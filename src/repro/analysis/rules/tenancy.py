"""Tenant-isolation rule (REP901).

The tenancy plane's fairness story rests on a mediation discipline
mirroring the cluster's (REP801): a tenant's private admission state —
estimator sketches, cache partitions, residency quotas, the mix-level
scheduling RNG — belongs to :mod:`repro.tenancy`, and everything the
pipeline or an experiment needs comes through the controller's public
surface (``admit``/``commit``/``counters``) or the accounting
readouts.  Code outside the package that pokes a tenant's partition or
estimator directly can skew residency shares without the accounting
noticing, which silently invalidates both the hit-rate comparison and
the per-tenant SLO attribution (DESIGN.md §13).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.visitors import Checker, ScopeTracker


class TenantIsolationChecker(Checker):
    """REP901: no tenant-private state access outside ``repro.tenancy``.

    Flags, in modules that import from ``repro.tenancy`` but live
    outside it, attribute reads of the tenant-private names the config
    lists (estimator tables, sketch rings, cache partitions, quotas,
    the scheduling RNG).  The public surface — ``TenancyController``,
    ``TenantMix``/``TenantMixStream``, the accounting readouts — is
    untouched; so is everything in files that never import the
    tenancy package (the attribute names alone are too generic to
    patrol globally).
    """

    rule = "REP901"
    name = "tenant-isolation"
    description = ("direct access to tenant-private admission state "
                   "outside repro.tenancy (the controller's verdicts "
                   "and accounting readouts must mediate)")

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.module is None:
            return False
        return not self.config.in_scope(
            ctx.module, self.config.tenancy_private_scope)

    def _imports_tenancy(self, ctx: FileContext) -> bool:
        scope = self.config.tenancy_private_scope
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and self.config.in_scope(node.module, scope):
                return True
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self.config.in_scope(alias.name, scope):
                        return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not self._imports_tenancy(ctx):
            return
        findings: list[Diagnostic] = []
        checker = self
        private_attrs = frozenset(self.config.tenancy_private_attrs)

        class Visitor(ScopeTracker):
            def visit_Attribute(self, node: ast.Attribute) -> None:
                if node.attr in private_attrs:
                    findings.append(checker.diag(
                        ctx, node,
                        f"`.{node.attr}` is tenant-private admission "
                        f"state — outside repro.tenancy every verdict "
                        f"and residency decision goes through the "
                        f"controller",
                        hint="use TenancyController.admit()/"
                             "counters()/estimates() or the "
                             "accounting readouts",
                        key=f"{self.qualname}:{node.attr}"))
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        yield from findings
