"""Memo purity rule (REP701).

A content cache — vdbench's payload cache, the audited module-level
caches of the LZ and index helpers — replays a cached value instead of
recomputing.  That is only sound if the computation being skipped is a
pure function of the cache key.  This rule derives that mechanically:
the effect engine discovers memo sites (a ``.get``/``in`` probe plus a
``[k] = v`` / ``.put(...)`` install on one container, in one function),
traces the installed value back through local assignment chains to its
*producer* calls, and requires every producer to infer transitively
pure.

A genuinely impure producer that its replay path deliberately
compensates for is audited in the committed baseline with a reason —
the rule keeps watching it so a new effect shows up as a new finding,
not silence.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.visitors import Checker


class MemoPurityChecker(Checker):
    """REP701: memoized producers must infer transitively pure."""

    rule = "REP701"
    name = "memo-producer-purity"
    description = ("a callable whose result is installed in a memo "
                   "must be transitively pure (effect inference)")

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
            for site in fn.memo_sites:
                for node, producers in site.installs:
                    for info in producers:
                        diag = self._producer_diag(
                            ctx, fn, site, node, info)
                        if diag is not None and diag.key not in seen:
                            seen.add(diag.key)
                            yield diag

    def _producer_diag(self, ctx, fn, site, node, info):
        kind = info[0]
        if kind in ("pure", "benign"):
            return None
        if kind in ("project", "project-ctor"):
            analysis = self.project.effects
            callee = info[1]
            cs = info[2] if len(info) > 2 else None
            effects = set(callee.effects)
            if cs is not None:
                # Lift parameter mutations through the actual call
                # site: a fresh argument absorbs the mutation, an
                # aliased one names what really changes.
                pmap = analysis._param_map(cs)
                lifted = set()
                for eff in effects:
                    if eff.kind != "mutates-param":
                        lifted.add(eff)
                        continue
                    head, _, tail = eff.detail.partition(".")
                    root = pmap.get(head)
                    if root is None:
                        continue
                    mapped = analysis._mutation_effect(
                        root, tail, eff.origin, None, None)
                    if mapped is not None:
                        lifted.add(mapped)
                effects = lifted
            elif kind == "project-ctor" and callee.params:
                # A constructor's mutations of its own fresh instance
                # are invisible to the caller.
                self_name = callee.params[0]
                effects = {e for e in effects
                           if not (e.kind == "mutates-param"
                                   and e.detail.split(".")[0]
                                   == self_name)}
            if not effects:
                return None
            effects = sorted(e.render() for e in effects)
            shown = "; ".join(effects[:3])
            if len(effects) > 3:
                shown += f"; +{len(effects) - 3} more"
            return self.diag(
                ctx, node,
                f"memo {site.container} installs the result of "
                f"`{callee.short()}`, which infers impure: {shown}",
                hint="make the producer pure, or audit the site in the "
                     "baseline with the compensating-replay reason",
                key=f"{fn.short()}:{site.container}:{callee.short()}")
        if kind == "impure":
            return self.diag(
                ctx, node,
                f"memo {site.container} installs a value produced by "
                f"effectful call `{info[2]}` ({info[1]})",
                hint="memoized values must come from pure computation",
                key=f"{fn.short()}:{site.container}:{info[2]}")
        # kind == "unknown"
        return self.diag(
            ctx, node,
            f"memo {site.container} installs a value whose producer "
            f"`{info[1]}` cannot be resolved for effect inference",
            hint="resolve the call statically (direct call, typed "
                 "receiver) or audit it in the baseline",
            key=f"{fn.short()}:{site.container}:{info[1]}")
