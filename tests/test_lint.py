"""The AST lint layer: fixtures, baseline machinery, CLI wiring.

Each ``tests/lint_fixtures/repNNN_*.py`` file seeds exactly the
violations its rule is for (plus negative examples on neighbouring
lines); the tests pin the (rule, line) pairs so a checker regression
shows up as a diff, not a shrug.  The repo-tree test is the same gate
CI runs: the source tree must lint clean modulo the committed
baseline, with no stale baseline entries.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    BaselineEntry,
    Diagnostic,
    LintConfig,
    all_checkers,
    checker_by_rule,
    run_lint,
)
from repro.analysis.context import FileContext
from repro.cli import main
from repro.errors import LintError

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
BASELINE = REPO_ROOT / ".repro-lint-baseline.json"

#: fixture file -> expected (rule, line) findings, in line order.
EXPECTED = {
    "rep101_wallclock.py": [("REP101", 9), ("REP101", 13)],
    "rep102_unseeded.py": [("REP102", 9), ("REP102", 13),
                           ("REP102", 21), ("REP102", 26)],
    "rep103_default_seed.py": [("REP103", 8)],
    "rep104_unordered.py": [("REP104", 8), ("REP104", 10),
                            ("REP104", 12)],
    "rep201_yield_literal.py": [("REP201", 6), ("REP201", 7)],
    "rep203_private_api.py": [("REP203", 6), ("REP203", 10)],
    "rep301_missing_slots.py": [("REP301", 7)],
    "rep401_layering.py": [("REP401", 4)],
    "rep501_float_eq.py": [("REP501", 6), ("REP501", 8)],
    "rep502_byte_loop.py": [("REP502", 7), ("REP502", 14)],
    "rep503_fp_decompose.py": [("REP503", 8), ("REP503", 9),
                               ("REP503", 13)],
    "rep504_chunk_loop.py": [("REP504", 6), ("REP504", 11)],
    "rep601_now_arith.py": [("REP601", 6), ("REP601", 7)],
    "rep704_module_state.py": [("REP704", 6), ("REP704", 7),
                               ("REP704", 8)],
    "rep801_cluster_access.py": [("REP801", 8), ("REP801", 9),
                                 ("REP801", 13)],
    "rep901_tenant_access.py": [("REP901", 8), ("REP901", 9),
                                ("REP901", 13), ("REP901", 17)],
}


def _lint(*paths: Path, baseline: Baseline | None = None):
    return run_lint(list(paths), LintConfig(root=REPO_ROOT),
                    baseline=baseline)


class TestFixtureFindings:
    @pytest.mark.parametrize("fixture", sorted(EXPECTED))
    def test_expected_diagnostics(self, fixture):
        report = _lint(FIXTURES / fixture)
        found = sorted((d.rule, d.line) for d in report.new)
        assert found == sorted(EXPECTED[fixture])
        assert not report.ok

    @pytest.mark.parametrize("fixture", sorted(EXPECTED))
    def test_cli_exits_nonzero(self, fixture):
        code = main(["lint", "--no-baseline", str(FIXTURES / fixture)])
        assert code == 1

    def test_clean_fixture(self):
        report = _lint(FIXTURES / "clean.py")
        assert report.ok
        assert report.suppressed == 0

    def test_inline_suppression(self):
        report = _lint(FIXTURES / "suppressed.py")
        assert report.ok
        assert report.suppressed == 1

    def test_every_rule_has_a_fixture(self):
        covered = {rule for pairs in EXPECTED.values()
                   for rule, _line in pairs}
        registered = {c.rule for c in all_checkers(LintConfig())}
        assert covered == registered


class TestRepoTree:
    """The gate CI enforces: clean modulo the committed baseline."""

    def test_repo_tree_clean_with_baseline(self):
        baseline = Baseline.load(BASELINE)
        report = _lint(REPO_ROOT / "src" / "repro", baseline=baseline)
        assert report.ok, "\n" + report.format_text()
        assert not report.stale_baseline, (
            "baseline entries no longer match any finding: "
            f"{report.stale_baseline}")
        # The grandfathered findings must still be *detected* (and
        # matched), or the baseline is dead weight.
        assert {d.rule for d in report.baselined} == {
            "REP103", "REP201", "REP504", "REP601"}

    def test_cli_repo_run(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0

    def test_rule_filter(self):
        config = LintConfig(root=REPO_ROOT, rules=("REP101",))
        report = run_lint([FIXTURES], config)
        assert report.rules_run == ["REP101"]
        assert {d.rule for d in report.new} == {"REP101"}

    def test_unknown_rule_rejected(self):
        with pytest.raises(LintError, match="REP999"):
            all_checkers(LintConfig(rules=("REP999",)))

    def test_checker_by_rule(self):
        checker = checker_by_rule("REP301", LintConfig())
        assert checker.rule == "REP301"


class TestBaseline:
    def test_roundtrip(self, tmp_path):
        report = _lint(FIXTURES / "rep101_wallclock.py")
        baseline = Baseline.from_diagnostics(report.new,
                                             reason="fixture test")
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        again = _lint(FIXTURES / "rep101_wallclock.py",
                      baseline=loaded)
        assert again.ok
        assert len(again.baselined) == len(report.new)
        assert not again.stale_baseline

    def test_stale_entry_detected(self):
        baseline = Baseline(entries=[BaselineEntry(
            rule="REP101", path="tests/lint_fixtures/clean.py",
            key="gone:time.time", reason="never existed")])
        report = _lint(FIXTURES / "clean.py", baseline=baseline)
        assert report.ok
        assert len(report.stale_baseline) == 1

    def test_partial_run_skips_stale_detection(self):
        # A run over less than the full tree cannot prove any entry
        # stale — the CLI passes check_stale=False for explicit path
        # arguments, same as --changed does via restrict.
        baseline = Baseline.load(BASELINE)
        report = run_lint([FIXTURES / "clean.py"],
                          LintConfig(root=REPO_ROOT),
                          baseline=baseline, check_stale=False)
        assert report.ok
        assert not report.stale_baseline

    def test_matching_is_line_insensitive(self):
        # Baseline keys use (rule, path, key): a finding that moves to
        # another line stays matched.
        report = _lint(FIXTURES / "rep203_private_api.py")
        entries = [BaselineEntry(rule=d.rule, path=d.path, key=d.key,
                                 reason="pinned") for d in report.new]
        again = _lint(FIXTURES / "rep203_private_api.py",
                      baseline=Baseline(entries=entries))
        assert again.ok

    def test_bad_baseline_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(LintError, match="version"):
            Baseline.load(path)

    def test_stale_entry_fails_cli(self, tmp_path, monkeypatch):
        # Stale detection only runs on default (full-tree) invocations;
        # build a one-file tree so the default paths cover everything.
        tree = tmp_path / "src" / "repro"
        tree.mkdir(parents=True)
        (tree / "clean.py").write_text((FIXTURES / "clean.py").read_text())
        path = tmp_path / "baseline.json"
        Baseline(entries=[BaselineEntry(
            rule="REP101", path="tests/lint_fixtures/clean.py",
            key="gone:time.time", reason="rotted")]).save(path)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--baseline", str(path)]) == 1

    def test_explicit_path_skips_stale_cli(self, tmp_path):
        # The same rotten entry is *not* called stale when the run is
        # narrowed to explicit paths — it cannot see every finding.
        path = tmp_path / "baseline.json"
        Baseline(entries=[BaselineEntry(
            rule="REP101", path="tests/lint_fixtures/clean.py",
            key="gone:time.time", reason="rotted")]).save(path)
        assert main(["lint", "--baseline", str(path),
                     str(FIXTURES / "clean.py")]) == 0

    def test_cli_write_then_pass(self, tmp_path):
        path = tmp_path / "baseline.json"
        fixture = str(FIXTURES / "rep501_float_eq.py")
        assert main(["lint", "--write-baseline",
                     "--baseline", str(path), fixture]) == 0
        assert path.exists()
        assert main(["lint", "--baseline", str(path), fixture]) == 0
        assert main(["lint", "--no-baseline", fixture]) == 1


class TestCliSurface:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("REP101", "REP203", "REP301", "REP401", "REP501"):
            assert rule in out

    def test_json_format(self, capsys):
        code = main(["lint", "--no-baseline", "--format", "json",
                     str(FIXTURES / "rep401_layering.py")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["new"][0]["rule"] == "REP401"
        assert payload["new"][0]["line"] == 4

    def test_missing_path_errors(self, capsys):
        assert main(["lint", "--no-baseline",
                     "/nonexistent/nowhere.py"]) == 2

    def test_syntax_error_is_lint_error(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        with pytest.raises(LintError, match="bad.py"):
            FileContext.from_path(bad, tmp_path)


class TestModuleResolution:
    def test_module_override_comment(self):
        ctx = FileContext.from_path(FIXTURES / "rep101_wallclock.py",
                                    REPO_ROOT)
        assert ctx.module == "repro.sim.fakeclock"

    def test_real_tree_module_names(self):
        ctx = FileContext.from_path(
            REPO_ROOT / "src" / "repro" / "sim" / "engine.py", REPO_ROOT)
        assert ctx.module == "repro.sim.engine"
