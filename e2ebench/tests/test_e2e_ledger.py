import cProfile
import warnings

import pytest

from conftest import small
from e2ebench.hostclock import Recorder
from e2ebench.ledger import (TARGETS, SpanLedger, _resolve,
                             layer_call_counts, summarize_spans)
from e2ebench.runner import traced_run

FAKE_TARGETS = ("repro.sim.engine:Environment.run",
                "repro.dedup.engine:DedupEngine.cpu_index",
                "repro.storage.metadata:MetadataStore.lookup")


def test_self_time_on_a_nested_call_tree():
    spans = [
        [0, -1, 0.0, 10.0],    # sim root
        [1, 0, 1.0, 4.0],      # dedup child ...
        [2, 1, 2.0, 3.0],      # ... with a storage grandchild
        [1, 0, 5.0, 6.0],      # second dedup child
        [1, 3, 5.2, 5.7],      # dedup nested in dedup: same group
        [0, -1, 20.0, 25.0],   # outside every timed region
        [2, 5, 21.0, 22.0],
    ]
    summary = summarize_spans(spans, FAKE_TARGETS, [(0.0, 10.0)])
    assert summary.wall == 10.0
    assert summary.coverage == 1.0
    assert summary.self_s["sim"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert summary.self_s["dedup"] == pytest.approx((3 - 1) + (1 - .5) + .5)
    assert summary.self_s["storage"] == pytest.approx(1.0)
    assert sum(summary.self_s.values()) == pytest.approx(10.0)
    # Inclusive time counts a nested call of the same group once.
    assert summary.group("DedupEngine.cpu_index") == pytest.approx(4.0)
    assert summary.group("DedupEngine.cpu_index",
                         "MetadataStore.lookup") == pytest.approx(4.0)
    assert summary.calls("DedupEngine.cpu_index") == 3
    assert summary.calls("MetadataStore.lookup") == 1


def test_half_covered_region_reports_its_coverage():
    spans = [[0, -1, 0.0, 5.0]]
    assert summarize_spans(spans, FAKE_TARGETS,
                           [(0.0, 10.0)]).coverage == 0.5


def test_wrappers_are_fully_removed(session):
    import repro.core.pipeline as pipeline_module
    import repro.dedup.hashing as hashing

    before = {target: _resolve(target)[2] for target in TARGETS}
    with SpanLedger() as ledger:
        assert not ledger.missing
        # The ``from``-imported copy is rebound together with its origin.
        assert pipeline_module.fingerprint_window \
            is hashing.fingerprint_window
        assert hashing.fingerprint_window \
            is not before["repro.dedup.hashing:fingerprint_window"]
    for target, original in before.items():
        assert _resolve(target)[2] is original, target
    assert pipeline_module.fingerprint_window \
        is before["repro.dedup.hashing:fingerprint_window"]
    # Methods found through inheritance are deleted, not overwritten.
    owner, attr, _ = _resolve(TARGETS[0])
    assert getattr(owner, attr).__name__ == attr


def test_missing_target_is_skipped_with_a_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with SpanLedger(("repro.sim.engine:Environment.no_such_method",
                         "repro.no_such_module:thing")) as ledger:
            pass
    assert len(ledger.missing) == 2 and len(caught) == 2


@pytest.mark.parametrize("name", ["desc_fit", "payload_cpu", "volume_read",
                                  "tenant_mix"])
def test_traced_report_equals_untraced(session, name):
    result = traced_run(session, small(name), seed=5)
    # traced_run fails the repetition if the span or count pass's report
    # differs from the untraced one, or if coverage is below 0.95.
    assert result["correct"], result["problems"]
    assert result["metrics"]["obs.ledger_coverage"]["value"] >= 0.95
    assert result["spans"] > 0


def test_two_count_passes_agree_exactly(session):
    workload = small("desc_fit")
    # Same cache state for both passes: the program keeps content-keyed
    # module-level caches, so a seed's first run makes more calls.
    workload.execute(session.program, 7, Recorder())
    totals = []
    for _ in range(2):
        profiler = cProfile.Profile()
        workload.execute(session.program, 7, Recorder(profiler))
        totals.append(layer_call_counts(profiler.getstats()))
    assert totals[0] == totals[1]
    per_layer, by_name = totals[0]
    assert per_layer["sim"] > per_layer["obs"]
    assert by_name["sim/engine.py:Environment.step"] > 0
