import json

from e2ebench import compare
from e2ebench.metrics import PER_LAYER, Metric

RATE = Metric("rate", "1/s", "higher", 0.10, "")
RSS = Metric("rss", "MB", "lower", 0.10, "")


def test_classify_against_the_bound():
    assert compare.classify(RATE, [100.0], [95.0])[0] == "within"
    assert compare.classify(RATE, [100.0], [105.0])[0] == "within"
    assert compare.classify(RATE, [100.0], [85.0])[0] == "worse"
    assert compare.classify(RATE, [100.0], [115.0])[0] == "better"
    # lower-is-better flips the direction
    assert compare.classify(RSS, [100.0], [115.0])[0] == "worse"
    assert compare.classify(RSS, [100.0], [85.0])[0] == "better"
    verdict, worsening = compare.classify(RATE, [100.0], [85.0])
    assert abs(worsening - 0.15) < 1e-12


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [80.0, 95.0, 100.0, 105.0, 125.0]   # IQR/median = 0.275
    assert compare.spread(noisy) > RATE.bound
    assert compare.classify(RATE, noisy, [70.0] * 5)[0] == "unresolved"
    # ... unless every new run beats every base run.
    assert compare.classify(RATE, noisy, [130.0] * 5)[0] == "better"
    # Fewer than four runs give no spread estimate: medians decide.
    assert compare.spread([80.0, 100.0, 125.0]) is None
    assert compare.classify(RATE, [80.0, 100.0, 125.0],
                            [70.0])[0] == "worse"


def test_exact_metrics_are_told_from_host_time():
    exact = {m.name for m in PER_LAYER if compare.is_exact(m)}
    assert {"sim.events_per_chunk", "dedup.flushes", "core.paper_gap_pp",
            "gpu.sim_mean_queue_wait_us", "sim.pycalls_per_chunk"} <= exact
    assert not {"sim.self_share", "sim.host_us_per_event",
                "obs.trace_overhead_pct", "storage.restart_scrub_s"} & exact


def _result(workload, kind, **metrics):
    return {"workload": workload, "kind": kind,
            "metrics": {name: {"value": value, "unit": "x"}
                        for name, value in metrics.items()}}


def test_main_prints_rows_and_sets_status(tmp_path, capsys):
    base, new = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps([
        _result("desc_fit", "run", chunks_per_s=100.0, peak_rss_mb=60.0),
        _result("desc_fit", "trace", **{"sim.events_per_chunk": 10.0}),
    ]))
    new.write_text(json.dumps([
        _result("desc_fit", "run", chunks_per_s=50.0, peak_rss_mb=60.0),
        _result("desc_fit", "trace", **{"sim.events_per_chunk": 9.0}),
    ]))
    assert compare.main(str(base), str(new)) == 1
    out = capsys.readouterr().out
    assert "worse (1/1)" in out and "within (1/1)" in out
    assert "EXACT METRIC MOVED" in out
    assert compare.main(str(base), str(base)) == 0
    # Agreement mode: a 'better' beyond the bound is a disagreement too.
    assert compare.main(str(new), str(base)) == 0
    assert compare.main(str(new), str(base), agree=True) == 1
