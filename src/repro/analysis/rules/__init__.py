"""Checker registry: one entry per enforced invariant (DESIGN.md §8)."""

from __future__ import annotations

from repro.analysis.config import LintConfig
from repro.analysis.rules.batchplane import ChunkLoopChecker
from repro.analysis.rules.cluster import ClusterIsolationChecker
from repro.analysis.rules.dataplane import (
    ByteLoopMatchExtensionChecker,
    FingerprintDecomposeChecker,
)
from repro.analysis.rules.determinism import (
    DefaultSeedChecker,
    UnorderedIterationChecker,
    UnseededRngChecker,
    WallClockChecker,
)
from repro.analysis.rules.floattime import FloatTimeEqualityChecker
from repro.analysis.rules.layering import LayeringChecker
from repro.analysis.rules.obs import NowArithmeticChecker
from repro.analysis.rules.sharedstate import ModuleStateChecker
from repro.analysis.rules.simproto import (
    PrivateEngineApiChecker,
    YieldNonEventChecker,
)
from repro.analysis.rules.slots import SlotsCoverageChecker
from repro.analysis.rules.tenancy import TenantIsolationChecker
from repro.analysis.visitors import Checker
from repro.errors import LintError

#: Every registered checker class, in rule-id order.
CHECKERS: tuple[type[Checker], ...] = (
    WallClockChecker,          # REP101
    UnseededRngChecker,        # REP102
    DefaultSeedChecker,        # REP103
    UnorderedIterationChecker,  # REP104
    YieldNonEventChecker,      # REP201
    PrivateEngineApiChecker,   # REP203
    SlotsCoverageChecker,      # REP301
    LayeringChecker,           # REP401
    FloatTimeEqualityChecker,  # REP501
    ByteLoopMatchExtensionChecker,  # REP502
    FingerprintDecomposeChecker,   # REP503
    ChunkLoopChecker,          # REP504
    NowArithmeticChecker,      # REP601
    ModuleStateChecker,        # REP704
    ClusterIsolationChecker,   # REP801
    TenantIsolationChecker,    # REP901
)


def all_checkers(config: LintConfig) -> list[Checker]:
    """Instantiate the checkers selected by ``config.rules``."""
    selected = None
    if config.rules is not None:
        selected = {r.upper() for r in config.rules}
        known = {cls.rule for cls in CHECKERS} \
            | {cls.name for cls in CHECKERS}
        unknown = selected - {k.upper() for k in known}
        if unknown:
            raise LintError(
                f"unknown rule(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(cls.rule for cls in CHECKERS))})")
    out = []
    for cls in CHECKERS:
        if selected is None or cls.rule in selected \
                or cls.name.upper() in selected:
            out.append(cls(config))
    return out


def checker_by_rule(rule: str, config: LintConfig) -> Checker:
    """Instantiate the single checker with the given rule id or name."""
    for cls in CHECKERS:
        if cls.rule == rule.upper() or cls.name == rule:
            return cls(config)
    raise LintError(f"unknown rule {rule!r}")
