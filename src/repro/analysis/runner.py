"""Lint driver: collect files, run checkers, apply baseline, report.

The runner is the only piece that touches the filesystem.  It walks
the requested paths, builds one :class:`FileContext` per source file,
fans each through every applicable checker, filters inline
suppressions, and splits the surviving findings into *new* (fail the
run) versus *baselined* (grandfathered with a reason).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.config import LintConfig
from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import all_checkers
from repro.analysis.visitors import Checker
from repro.errors import LintError

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules",
              "build", "dist"}


@dataclass
class LintReport:
    """Outcome of one lint run."""

    #: Findings not covered by the baseline — these fail the run.
    new: list[Diagnostic] = field(default_factory=list)
    #: Findings matched (and silenced) by a baseline entry.
    baselined: list[Diagnostic] = field(default_factory=list)
    #: Count of findings silenced by inline ``# repro-lint: disable``.
    suppressed: int = 0
    #: Baseline entries that matched nothing (rot detector).
    stale_baseline: list[BaselineEntry] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: list[str] = field(default_factory=list)
    #: True when the run was restricted to a changed-file subset;
    #: stale-baseline detection is skipped (the run cannot see every
    #: finding, so absence proves nothing).
    restricted: bool = False

    @property
    def ok(self) -> bool:
        """True when the tree is clean modulo the baseline."""
        return not self.new

    def all_findings(self) -> list[Diagnostic]:
        return sorted(self.new + self.baselined,
                      key=Diagnostic.sort_key)

    def format_text(self) -> str:
        lines = []
        for diag in sorted(self.new, key=Diagnostic.sort_key):
            lines.append(diag.format_text())
        if self.baselined:
            lines.append(f"({len(self.baselined)} baselined finding(s) "
                         f"suppressed; see the baseline file)")
        for entry in self.stale_baseline:
            lines.append(f"stale baseline entry: {entry.rule} "
                         f"{entry.path} [{entry.key}] — no longer "
                         f"occurs, remove it")
        lines.append(
            f"{len(self.new)} problem(s) in {self.files_scanned} "
            f"file(s) ({len(self.baselined)} baselined, "
            f"{self.suppressed} inline-suppressed)")
        return "\n".join(lines)

    def format_github(self) -> str:
        """GitHub workflow-command annotations (inline PR diagnostics)."""
        lines = []
        for diag in sorted(self.new, key=Diagnostic.sort_key):
            message = diag.message
            if diag.hint:
                message += f" — {diag.hint}"
            # Workflow commands terminate at a newline; %0A escapes.
            message = message.replace("%", "%25").replace("\n", "%0A")
            lines.append(
                f"::error file={diag.path},line={diag.line},"
                f"col={diag.col + 1},title={diag.rule}::{message}")
        for entry in self.stale_baseline:
            lines.append(
                f"::warning file={entry.path},title=stale-baseline::"
                f"baseline entry {entry.rule} [{entry.key}] no longer "
                f"occurs, remove it")
        lines.append(
            f"{len(self.new)} problem(s) in {self.files_scanned} "
            f"file(s) ({len(self.baselined)} baselined, "
            f"{self.suppressed} inline-suppressed)")
        return "\n".join(lines)

    def format_json(self) -> str:
        return json.dumps({
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "rules_run": self.rules_run,
            "new": [d.to_json()
                    for d in sorted(self.new, key=Diagnostic.sort_key)],
            "baselined": [d.to_json() for d in sorted(
                self.baselined, key=Diagnostic.sort_key)],
            "suppressed": self.suppressed,
            "stale_baseline": [
                {"rule": e.rule, "path": e.path, "key": e.key,
                 "reason": e.reason} for e in self.stale_baseline],
        }, indent=2)


def iter_source_files(paths: Iterable[Path]) -> Iterable[Path]:
    """Yield every ``.py`` file under ``paths`` in sorted order."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.exists():
            raise LintError(f"no such path: {path}")
        for sub in sorted(path.rglob("*.py")):
            if not any(part in _SKIP_DIRS for part in sub.parts):
                yield sub


def lint_file(ctx: FileContext, checkers: Sequence[Checker]
              ) -> tuple[list[Diagnostic], int]:
    """All non-suppressed findings for one file, plus suppressed count."""
    findings: list[Diagnostic] = []
    suppressed = 0
    for checker in checkers:
        if not checker.applies_to(ctx):
            continue
        for diag in checker.check(ctx):
            if ctx.suppressed(diag.rule, diag.line):
                suppressed += 1
            else:
                findings.append(diag)
    return findings, suppressed


def run_lint(paths: Sequence[Path], config: Optional[LintConfig] = None,
             baseline: Optional[Baseline] = None,
             restrict: Optional[set[str]] = None,
             check_stale: bool = True) -> LintReport:
    """Lint ``paths`` and return a :class:`LintReport`.

    ``restrict`` limits parsing and reporting to the given ``rel_path``
    set (``--changed``).  A restricted run skips stale-baseline detection: it
    cannot see every finding, so an unmatched entry proves nothing.
    ``check_stale=False`` skips it for the same reason on runs whose
    *paths* cover less than the full tree (explicit file arguments).
    """
    config = config if config is not None else LintConfig()
    checkers = all_checkers(config)
    baseline = baseline if baseline is not None else Baseline()
    report = LintReport(rules_run=[c.rule for c in checkers],
                        restricted=restrict is not None)
    wanted = None if restrict is None else \
        {(config.root / rel).resolve() for rel in restrict}
    all_diags: list[Diagnostic] = []
    for path in iter_source_files(paths):
        if wanted is not None and path.resolve() not in wanted:
            continue
        ctx = FileContext.from_path(path, config.root)
        report.files_scanned += 1
        findings, suppressed = lint_file(ctx, checkers)
        report.suppressed += suppressed
        all_diags.extend(findings)
    for diag in all_diags:
        if baseline.contains(diag):
            report.baselined.append(diag)
        else:
            report.new.append(diag)
    if restrict is None and check_stale:
        report.stale_baseline = baseline.stale_entries(all_diags)
    return report
