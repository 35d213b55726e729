"""P6 — batched functional-plane performance (engineering, not paper).

The perf-opt PR that batched the functional plane (array-native chunk
windows, window fingerprinting through a payload-hash memo, grouped
codec dispatch with a cross-window result memo, inlined FTL run
accounting) is held to two promises:

1. **Identity** — per-mode report digests match the pre-batching
   goldens, and the golden E4 fields still match exactly.
   This always runs; it is assert-only and timing-free.
2. **Speed** — the geometric mean across the four functional-plane
   scenarios (chunk materialize, fingerprint window, codec dispatch,
   destage accounting) is >= 2x the seed-commit baselines.
   Wall-clock thresholds are only meaningful on the reference
   container, so the assertion is gated behind ``REPRO_PERF_TIMING=1``;
   without it the timings are still measured and written to
   ``BENCH_pipeline.json`` for inspection.
"""

import os

from repro.bench.pipeline import (
    REQUIRED_PIPELINE_SPEEDUP,
    bench_codec_dispatch,
    run_pipeline_bench,
)

#: Opt-in for machine-dependent wall-clock assertions.
TIMING_ENFORCED = os.environ.get("REPRO_PERF_TIMING") == "1"


def test_pipeline_identity_and_speedup(once):
    """Golden fields are identical; functional-plane speedup meets the bar."""
    results = once(run_pipeline_bench, quick=True,
                   out_path="BENCH_pipeline.json")

    # Identity: the batched plane must not move a single report field.
    reports = results["golden_reports"]
    assert reports["fields_ok"], (
        f"per-mode report digests drifted from the pre-batching "
        f"goldens: {reports.get('mismatches')}")
    assert results["fields_ok"]

    # Sanity on the measured numbers (always), threshold only on the
    # reference machine.
    for scenario in ("chunk_materialize", "fingerprint_window",
                     "codec_dispatch", "destage_account"):
        assert results[scenario]["seconds"] > 0
    assert results["aggregate_speedup"] > 0
    if TIMING_ENFORCED:
        assert results["aggregate_speedup"] >= REQUIRED_PIPELINE_SPEEDUP, (
            f"functional-plane aggregate speedup "
            f"{results['aggregate_speedup']:.2f}x is below the "
            f"required {REQUIRED_PIPELINE_SPEEDUP}x")


def test_pipeline_profile_hook():
    """--profile wraps the run in cProfile and surfaces hot functions."""
    result = bench_codec_dispatch(repeats=1)
    assert result["chunks_per_s"] > 0
    profiled = run_pipeline_bench(quick=True, profile=True, out_path=None)
    assert "profile_top" in profiled
    assert "cumulative" in profiled["profile_top"]
