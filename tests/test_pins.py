"""The field-level report pins and the re-pin tool (``tests/pins/``,
``tests/repin.py``).

Each stored report re-serialises to the sha256 it was pinned by before
it was stored whole, so the conversion lost nothing.  The comparison is
exact and names what moved; the tool writes only what ``--moves``
names.
"""

import math
import shutil

import pytest

from tests import pins, repin
from tests.pins.runs import RUNS

STORED = [(family, name) for family, names in RUNS.items()
          for name in names]


@pytest.mark.parametrize("family,name", STORED,
                         ids=[f"{f}/{n}" for f, n in STORED])
def test_a_stored_report_reserialises_to_its_digest(family, name):
    entry = pins.load(family)[name]
    assert pins.report_sha256(entry["report"]) == entry["sha256"]


def test_every_pin_file_holds_exactly_its_runs():
    for family, names in RUNS.items():
        assert sorted(pins.load(family)) == sorted(names), family


def bumped(report: dict, field: str) -> dict:
    """``report`` with top-level float ``field`` one ULP higher."""
    report = pins.canonical(report)
    report[field] = math.nextafter(report[field], math.inf)
    return report


class TestExactComparison:
    REPORT = {"iops": 1000.5, "chunks": 8, "counters": {"hits": 3},
              "tenants": [{"p99": 0.25}, {"p99": 0.5}], "empty": []}

    def test_equal_reports_move_nothing(self):
        assert pins.moved_fields(self.REPORT, pins.canonical(self.REPORT)) \
            == []

    def test_one_ulp_is_a_move(self):
        moved = bumped(self.REPORT, "iops")
        assert [field for field, _, _ in
                pins.moved_fields(self.REPORT, moved)] == ["iops"]

    def test_nested_fields_are_named_by_path(self):
        moved = pins.canonical(self.REPORT)
        moved["tenants"][1]["p99"] = 0.75
        moved["counters"]["hits"] = 4
        assert pins.moved_fields(self.REPORT, moved) == [
            ("counters.hits", 3, 4), ("tenants[1].p99", 0.5, 0.75)]

    def test_type_sign_and_presence_are_moves(self):
        moved = pins.canonical(self.REPORT)
        moved["chunks"] = 8.0
        moved["counters"] = {}
        moved["new"] = 0
        assert pins.moved_fields(self.REPORT, moved) == [
            ("chunks", 8, 8.0), ("counters", pins.ABSENT, {}),
            ("counters.hits", 3, pins.ABSENT), ("new", pins.ABSENT, 0)]
        assert pins.moved_fields({"x": 0.0}, {"x": -0.0}) \
            == [("x", 0.0, -0.0)]

    def test_patterns_name_a_field_at_any_depth(self):
        assert pins.matches("ssd_utilization", ["ssd_utilization"])
        assert pins.matches("tenants[1].ssd_utilization", ["ssd_utilization"])
        assert pins.matches("latency_percentiles.p99", ["latency_*"])
        assert not pins.matches("ssd_utilization", ["cpu_utilization"])
        assert not pins.matches("gpu_utilization_x", ["gpu_utilization"])


@pytest.fixture
def pin_dir(tmp_path, monkeypatch):
    """A scratch copy of the pins the tool may write."""
    for path in pins.PIN_DIR.glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
    monkeypatch.setattr(pins, "PIN_DIR", tmp_path)
    return tmp_path


def stored_run(mutate=None):
    """A ``run`` for the tool that answers each pin's stored report,
    passed through ``mutate(family, report)``."""
    def run(family, name):
        report = pins.load(family)[name]["report"]
        return report if mutate is None else mutate(family, report)
    return run


def ssd_one_ulp(family, report):
    if family in ("golden_reports", "report_variants"):
        return bumped(report, "ssd_utilization")
    return report


class TestRepin:
    def test_read_only_run_finds_nothing(self, pin_dir, capsys):
        assert repin.main([], run=stored_run()) == 0
        assert "no pinned field moved" in capsys.readouterr().out

    def test_read_only_run_names_the_moved_field(self, pin_dir, capsys):
        before = {p.name: p.read_text() for p in pin_dir.glob("*.json")}
        assert repin.main([], run=stored_run(ssd_one_ulp)) == 1
        out = capsys.readouterr().out
        moved = len(RUNS["golden_reports"]) + len(RUNS["report_variants"])
        assert out.count("`ssd_utilization`") == moved
        assert "nothing written" in out
        assert {p.name: p.read_text() for p in pin_dir.glob("*.json")} \
            == before

    def test_a_move_outside_the_patterns_is_refused(self, pin_dir, capsys):
        before = {p.name: p.read_text() for p in pin_dir.glob("*.json")}
        assert repin.main(["--moves", "cpu_utilization", "--cause", "x"],
                          run=stored_run(ssd_one_ulp)) == 1
        assert "refusing to write" in capsys.readouterr().out
        assert {p.name: p.read_text() for p in pin_dir.glob("*.json")} \
            == before

    def test_named_moves_are_written(self, pin_dir, capsys):
        old = pins.load("golden_reports")["cpu_only"]["report"]
        untouched = (pin_dir / "tenant_mix.json").read_text()
        assert repin.main(["--moves", "ssd_utilization", "--cause",
                           "exact integral"],
                          run=stored_run(ssd_one_ulp)) == 0
        out = capsys.readouterr().out
        assert "Cause: exact integral" in out and "rewrote" in out
        entry = pins.load("golden_reports")["cpu_only"]
        assert pins.moved_fields(old, entry["report"]) == [
            ("ssd_utilization", old["ssd_utilization"],
             math.nextafter(old["ssd_utilization"], math.inf))]
        assert pins.report_sha256(entry["report"]) == entry["sha256"]
        assert (pin_dir / "tenant_mix.json").read_text() == untouched

    def test_moves_need_a_cause(self, pin_dir):
        with pytest.raises(SystemExit):
            repin.main(["--moves", "ssd_utilization"], run=stored_run())
