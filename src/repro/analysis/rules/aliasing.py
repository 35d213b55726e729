"""Escape-then-mutate aliasing rule (REP702).

The fast paths share buffers by *reference*: ``lz_common.key3_array``
hands the same cached key array to every codec instance,
``occurrence_index`` shares frozen occurrence lists, and ``ChunkBatch``
exposes its offset/size numpy columns as views that the batched plane
slices without copying.  One in-place write through any of those aliases
corrupts every other consumer retroactively — the classic
escaped-buffer bug the byte-identical-report contract cannot survive.

The effect engine marks values that arrive through a configured shared
provider, a cache subscript, or a shared attribute
(``shared_view_attrs``) with a ``shared`` root.  This rule reports
every write through such a root: direct writes in the function body,
and *lifted* writes where a callee mutates a parameter the caller bound
to a shared value (the inter-procedural case a per-file rule cannot
see).
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.visitors import Checker


class SharedViewMutationChecker(Checker):
    """REP702: no mutation of escaped cache values or shared views."""

    rule = "REP702"
    name = "shared-view-mutation"
    description = ("in-place write through a cached value or shared "
                   "view (escape-then-mutate aliasing)")

    def _analysis(self, ctx: FileContext):
        if self.project is None:
            from repro.analysis.project import ProjectContext
            self.project = ProjectContext([ctx], self.config)
        return self.project.effects

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        analysis = self._analysis(ctx)
        seen: set[str] = set()
        for fn in analysis.functions.values():
            if fn.rel_path != ctx.rel_path:
                continue
            for node, desc in fn.shared_writes:
                key = f"{fn.short()}:{desc}"
                if key in seen:
                    continue
                seen.add(key)
                yield self.diag(
                    ctx, node,
                    f"in-place write through shared value "
                    f"`{desc}` in `{fn.short()}`",
                    hint="copy before mutating (bytes(...) / "
                         ".copy()), or stop sharing the buffer",
                    key=key)
        for fn, node, desc, origin in analysis.shared_lifts:
            if fn.rel_path != ctx.rel_path:
                continue
            key = f"{fn.short()}:{desc}:{origin}"
            if key in seen:
                continue
            seen.add(key)
            yield self.diag(
                ctx, node,
                f"`{fn.short()}` passes shared value `{desc}` into a "
                f"callee that mutates it ({origin})",
                hint="pass a copy, or make the callee non-mutating",
                key=key)
