"""Data-plane hot-loop hygiene rules (REP502, REP503).

The fast-path PR replaced every per-byte match-extension loop —
``while ... data[a + i] == data[b + i]`` — with
:func:`repro.compression.lz_common.common_prefix_length`, which runs the
same comparison as one C-level integer XOR.  A new per-byte loop in the
compression or GPU-kernel packages is almost always a regression to the
slow idiom (or a divergence from the single audited implementation), so
it is flagged.  The one audited exception is the bounded 8-byte head
scan *inside* ``common_prefix_length`` itself — short matches are the
common case and the inline scan beats slice setup there — and it
carries an inline suppression.

REP503 is the same discipline for fingerprints: every derived slice of
a fingerprint (bin prefix, truncated suffix) comes from
:func:`repro.dedup.index_base.decompose`, the one site that validates
a fingerprint and cuts it into its view.  A fresh ``int.from_bytes``
call or ``fingerprint[...]`` slice elsewhere in ``repro.dedup``
re-derives what the view already holds — at best a redundant decode on
the hot path, at worst a drift from the audited decomposition.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.visitors import Checker, ScopeTracker


class ByteLoopMatchExtensionChecker(Checker):
    """REP502: no per-byte ``data[a+i] == data[b+i]`` while-loops."""

    rule = "REP502"
    name = "byte-loop-match-extension"
    description = ("per-byte while-loop match extension in data-plane "
                   "hot code (use common_prefix_length)")

    def applies_to(self, ctx: FileContext) -> bool:
        return self.config.in_scope(ctx.module,
                                    self.config.dataplane_scope)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        findings: list[Diagnostic] = []
        checker = self

        def subscript_equality(test: ast.AST) -> ast.Compare | None:
            """The first ``sub == sub`` comparison inside ``test``.

            Both operands must be subscripts: an index compared against
            a scalar (``bin_ids[order[end]] == bid``) is a scan for a
            value, not a match extension, and stays legal.
            """
            for node in ast.walk(test):
                if not isinstance(node, ast.Compare):
                    continue
                sides = [node.left] + list(node.comparators)
                for op, (left, right) in zip(node.ops,
                                             zip(sides, sides[1:])):
                    if isinstance(op, ast.Eq) \
                            and isinstance(left, ast.Subscript) \
                            and isinstance(right, ast.Subscript):
                        return node
            return None

        class Visitor(ScopeTracker):
            def visit_While(self, node: ast.While) -> None:
                compare = subscript_equality(node.test)
                if compare is not None:
                    findings.append(checker.diag(
                        ctx, node,
                        f"per-byte match-extension loop "
                        f"(`while {ast.unparse(node.test)}`) — this is "
                        f"the slow idiom the data-plane fast path "
                        f"retired",
                        hint="call lz_common.common_prefix_length (the "
                             "one audited per-byte head scan lives "
                             "inside it and is inline-suppressed)",
                        key=f"{self.qualname}:"
                            f"{ast.unparse(compare)}"))
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        yield from findings


class FingerprintDecomposeChecker(Checker):
    """REP503: fingerprint decomposition outside the audited helper."""

    rule = "REP503"
    name = "fp-decompose"
    description = ("per-fingerprint int.from_bytes / slicing outside "
                   "index_base.decompose (use FingerprintView)")

    def applies_to(self, ctx: FileContext) -> bool:
        cfg = self.config
        return (cfg.in_scope(ctx.module, cfg.fp_decompose_scope)
                and not cfg.in_scope(ctx.module, cfg.fp_decompose_exempt))

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        findings: list[Diagnostic] = []
        checker = self
        fp_names = self.config.fingerprint_names

        def names_fingerprint(node: ast.AST) -> bool:
            return isinstance(node, ast.Name) \
                and (node.id in fp_names or "fingerprint" in node.id)

        class Visitor(ScopeTracker):
            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                if isinstance(func, ast.Attribute) \
                        and func.attr == "from_bytes" \
                        and isinstance(func.value, ast.Name) \
                        and func.value.id == "int":
                    findings.append(checker.diag(
                        ctx, node,
                        f"fingerprint bytes decoded in place "
                        f"(`{ast.unparse(node)}`) — decomposition "
                        f"belongs to index_base.decompose",
                        hint="read bin_id/lo/hi off the shared "
                             "FingerprintView instead of re-decoding",
                        key=f"{self.qualname}:{ast.unparse(node)}"))
                self.generic_visit(node)

            def visit_Subscript(self, node: ast.Subscript) -> None:
                if isinstance(node.slice, ast.Slice) \
                        and names_fingerprint(node.value):
                    findings.append(checker.diag(
                        ctx, node,
                        f"fingerprint sliced in place "
                        f"(`{ast.unparse(node)}`) — decomposition "
                        f"belongs to index_base.decompose",
                        hint="read the suffix off the shared "
                             "FingerprintView instead of re-slicing",
                        key=f"{self.qualname}:{ast.unparse(node)}"))
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        yield from findings
