"""Project-specific static analysis (``repro lint``).

The fast-path engine work (DESIGN.md §7) leans on invariants a test
only sees on the paths it runs: deterministic schedules, the engine's
process protocol, exact-time hygiene, batched data-plane loops.  This
package checks them mechanically: an AST-walking lint framework plus
one checker per enforced invariant (DESIGN.md §8 maps each rule to the
invariant it guards).  A rule stays only while it arbitrates something
— a baseline entry, an inline suppression, or an invariant no runtime
test covers.

Layering: this package deliberately imports nothing from the rest of
the library except :mod:`repro.errors` — the linter must be able to
analyse a broken tree without importing it.

Public surface::

    from repro.analysis import run_lint, LintConfig, all_checkers

    report = run_lint([Path("src/repro")], LintConfig(root=repo_root))
    for diag in report.new:
        print(diag.format_text())
"""

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.config import LintConfig
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.runner import LintReport, run_lint
from repro.analysis.rules import all_checkers, checker_by_rule

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Diagnostic",
    "LintConfig",
    "LintReport",
    "all_checkers",
    "checker_by_rule",
    "run_lint",
]
