"""Checker registry: one entry per enforced invariant (DESIGN.md §8)."""

from __future__ import annotations

from repro.analysis.config import LintConfig
from repro.analysis.rules.batchplane import ChunkLoopChecker
from repro.analysis.rules.dataplane import ByteLoopMatchExtensionChecker
from repro.analysis.rules.determinism import (
    DefaultSeedChecker,
    UnseededRngChecker,
    WallClockChecker,
)
from repro.analysis.rules.floattime import FloatTimeEqualityChecker
from repro.analysis.rules.obs import NowArithmeticChecker
from repro.analysis.rules.simproto import (
    PrivateEngineApiChecker,
    YieldNonEventChecker,
)
from repro.analysis.visitors import Checker
from repro.errors import LintError

#: Every registered checker class, in rule-id order.
CHECKERS: tuple[type[Checker], ...] = (
    WallClockChecker,          # REP101
    UnseededRngChecker,        # REP102
    DefaultSeedChecker,        # REP103
    YieldNonEventChecker,      # REP201
    PrivateEngineApiChecker,   # REP203
    FloatTimeEqualityChecker,  # REP501
    ByteLoopMatchExtensionChecker,  # REP502
    ChunkLoopChecker,          # REP504
    NowArithmeticChecker,      # REP601
)


def all_checkers(config: LintConfig) -> list[Checker]:
    """Instantiate the checkers selected by ``config.rules``."""
    selected = None
    if config.rules is not None:
        selected = {r.upper() for r in config.rules}
        known = {cls.rule for cls in CHECKERS} \
            | {cls.name.upper() for cls in CHECKERS}
        unknown = selected - known
        if unknown:
            raise LintError(
                f"unknown rule(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(cls.rule for cls in CHECKERS)})")
    return [cls() for cls in CHECKERS
            if selected is None or cls.rule in selected
            or cls.name.upper() in selected]


def checker_by_rule(rule: str) -> Checker:
    """Instantiate the single checker with the given rule id or name."""
    for cls in CHECKERS:
        if cls.rule == rule.upper() or cls.name == rule:
            return cls()
    raise LintError(f"unknown rule {rule!r}")
