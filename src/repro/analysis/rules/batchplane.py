"""Batched functional-plane hygiene rule (REP504).

The batched-pipeline PR moved the functional plane onto chunk *windows*:
materialization, fingerprinting, codec dispatch and destage accounting
each take a whole window and amortize their per-call overhead across it
(DESIGN.md §12).  A fresh Python ``for`` loop (or comprehension) over a
chunk sequence inside those modules is almost always a regression to
the per-chunk idiom the batching retired — per-chunk attribute lookups
and dispatch re-entering through the narrow end of the funnel.

The audited exceptions — the window implementations themselves (one
loop per window *is* the batch) and the admission loop whose per-chunk
event pacing is the timed contract — are baselined with reasons,
exactly like REP502/REP503's audited sites.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.visitors import Checker, ScopeTracker


class ChunkLoopChecker(Checker):
    """REP504: no per-chunk loops over chunk sequences in batched modules."""

    rule = "REP504"
    name = "chunk-seq-loop"
    description = ("per-chunk Python loop over a chunk sequence inside "
                   "a batched functional-plane module (use the window "
                   "helpers)")

    def applies_to(self, ctx: FileContext) -> bool:
        return self.config.in_scope(ctx.module,
                                    self.config.batched_plane_scope)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        findings: list[Diagnostic] = []
        checker = self
        seq_names = self.config.chunkseq_names

        def chunk_sequence(node: ast.AST) -> str | None:
            """The iterated name when it is a bare chunk-sequence name."""
            if isinstance(node, ast.Name) and node.id in seq_names:
                return node.id
            return None

        def flag(node: ast.AST, name: str, qualname: str,
                 kind: str) -> None:
            findings.append(checker.diag(
                ctx, node,
                f"per-chunk {kind} over `{name}` in a batched "
                f"functional-plane module — the window helpers "
                f"(fingerprint_window, compress_window, write_run, "
                f"ChunkBatch) already amortize this traversal",
                hint="push the per-chunk work into the module's "
                     "window/batch helper, or baseline the site with "
                     "a reason if the per-chunk traversal is the "
                     "audited implementation itself",
                key=f"{qualname}:{kind}-{name}"))

        class Visitor(ScopeTracker):
            def visit_For(self, node: ast.For) -> None:
                name = chunk_sequence(node.iter)
                if name is not None:
                    flag(node, name, self.qualname, "for-loop")
                self.generic_visit(node)

            def _visit_comprehension(self, node) -> None:
                for gen in node.generators:
                    name = chunk_sequence(gen.iter)
                    if name is not None:
                        flag(node, name, self.qualname, "comprehension")
                self.generic_visit(node)

            visit_ListComp = _visit_comprehension
            visit_SetComp = _visit_comprehension
            visit_DictComp = _visit_comprehension
            visit_GeneratorExp = _visit_comprehension

        Visitor().visit(ctx.tree)
        yield from findings
