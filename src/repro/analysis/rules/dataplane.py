"""Data-plane hot-loop hygiene rule (REP502).

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
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.visitors import Checker, ScopeTracker

#: Packages whose inner loops touch payload bytes.
SCOPE = ("repro.compression", "repro.gpu.kernels")


class ByteLoopMatchExtensionChecker(Checker):
    """REP502: no per-byte ``data[a+i] == data[b+i]`` while-loops."""

    rule = "REP502"
    name = "byte-loop-match-extension"
    description = ("per-byte while-loop match extension in data-plane "
                   "hot code (use common_prefix_length)")
    scope = SCOPE

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

