"""BENCHMARK.json says what the code measures, within the contract."""

import json
import re
import signal
from pathlib import Path

from e2ebench.checks import diff_facts
from e2ebench.hostclock import Recorder, SpeedProbe, quartiles, trimmed_mean
from e2ebench.metrics import END_TO_END, PER_LAYER
from e2ebench.workloads import WORKLOADS, flatten

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_tables():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["e2ebench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]


def test_names_units_and_limits():
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m.unit) for m in END_TO_END + PER_LAYER)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               and m.bound == max(x.bound for x in END_TO_END)
               for m in END_TO_END)
    assert 2 <= len(WORKLOADS) <= 8 and len(PER_LAYER) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60


def test_probe_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe(interval_s=0.001)
    assert probe.speed(0.0, 1.0) == 1.0      # no samples: plain seconds
    probe.start()
    rec = Recorder()
    with rec.timed("spin"):
        total = sum(i * i for i in range(300_000))
    probe.stop()
    assert total and signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.samples > 3
    (_, start, end), = rec.of_kind("timed")
    assert probe.cost(start, end) == (end - start) / probe.speed(start, end)
    assert rec.region_costs(SpeedProbe()) == {"spin": end - start}


def test_small_statistics():
    assert trimmed_mean([1.0] * 9 + [100.0]) == 1.0
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0


def test_pinned_compare_is_exact_for_ints_and_tolerant_for_floats():
    facts = flatten({"a": {"n": 3, "x": 0.1 + 0.2, "label": "dropped"},
                     "b": [1, 2.5]})
    assert facts == {"a.n": 3, "a.x": 0.1 + 0.2, "b.0": 1, "b.1": 2.5}
    assert diff_facts(facts, dict(facts, **{"a.x": 0.3})) == []
    assert diff_facts(facts, dict(facts, **{"a.x": 0.3000001}))
    assert diff_facts(facts, dict(facts, **{"a.n": 4}))
    assert diff_facts(facts, {k: v for k, v in facts.items() if k != "b.0"})
