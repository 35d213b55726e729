"""Pipeline functional-plane benchmark (``repro bench pipeline``).

The engine bench watches the timed substrate, the dataplane bench the
codec loops, and the dedup bench the index structures; this module
watches the *functional plane of the pipeline itself* — the per-chunk
work that is pure computation, not simulated time: materializing chunks
from the workload stream, the SHA-1 fingerprint pass, codec dispatch,
and the FTL's page-accounting loop.  The batched functional plane is
held to the same two promises as the earlier fast-path PRs:

1. **Identity** — the pinned golden report sha256 digests are unchanged
   across all four integration modes.  Always checked; timing-free.
2. **Speed** — the aggregate (geometric-mean) speedup over the four
   functional microbenchmarks is >= 2x the pinned seed baselines.  The
   gate in ``benchmarks/test_p6_pipeline.py`` enforces it behind
   ``REPRO_PERF_TIMING=1``; timings are always measured and written to
   ``BENCH_pipeline.json``.

Scenarios (``--quick`` trims repeats and skips the full-size E4 field
re-run; every identity check still runs):

* **chunk_materialize** — descriptor-mode stream consumption through
  ``VdbenchStream.next_batch`` windows (vs the per-chunk generator);
* **fingerprint_window** — batched SHA-1 pass with the payload-hash
  memo over a dup-heavy payload window (vs per-chunk hashing);
* **codec_dispatch** — grouped codec dispatch (``compress_window``)
  with a warm codec memo over the same window (vs per-chunk compress);
* **destage_account** — FTL fill + churn through ``Ftl.write_run``
  (vs per-page ``write`` calls);
* **golden** — report digests, all four modes.

The baseline constants below are *wall-clock measurements from one
specific machine at the pre-batching commit* (the per-chunk path over
identical work).  Speedups against them are meaningful on that class
of machine only; the identity checks are meaningful everywhere.
"""

from __future__ import annotations

import random
from typing import Any, Optional

from repro.bench.common import (
    attach_profile,
    attach_trace,
    best_of,
    fold_fields_ok,
    rate_entry,
    render_identity_lines,
    render_rate_lines,
    render_tail,
    set_aggregate,
    start_profile,
    write_results,
)
from repro.compression.memo import CodecMemo
from repro.compression.parallel_cpu import CpuCompressor
from repro.dedup.hashing import PayloadHashMemo, fingerprint_window
from repro.storage.ftl import Ftl, FtlSpec
from repro.workload.vdbench import VdbenchStream

#: Pre-batching functional-plane rates (reference container, best-of-N,
#: per-chunk path over the identical workload).  Keys are scenario
#: names; values are the scenario's ops/second.
BASELINE_RATES = {
    "chunk_materialize": 440_366.0,
    "fingerprint_window": 336_787.0,
    "codec_dispatch": 735_080.0,
    "destage_account": 749_340.0,
}

#: The PR's acceptance bar: geometric-mean speedup over the four
#: functional microbenchmarks on the reference machine.
REQUIRED_PIPELINE_SPEEDUP = 2.0

# -- scenario geometry (mirrors the pinned-baseline measurement) -------------

#: chunk_materialize: descriptor chunks consumed per repeat.
MATERIALIZE_CHUNKS = 65_536
#: chunk_materialize: feeder window size.
MATERIALIZE_WINDOW = 512
#: fingerprint/codec: payload chunks per window.
WINDOW_CHUNKS = 1024
#: fingerprint/codec: passes over the window per repeat.
WINDOW_PASSES = 4
#: destage_account: FTL geometry (64 blocks x 64 pages).
FTL_BLOCKS = 64
FTL_PAGES_PER_BLOCK = 64


def _payload_window(count: int = WINDOW_CHUNKS, seed: int = 7) -> list:
    """The dup-heavy payload window shared by the hashing and codec
    scenarios (exactly the corpus the seed baselines were measured on)."""
    stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=seed,
                           payload=True)
    return list(stream.chunks(count))


# -- scenarios --------------------------------------------------------------

def bench_chunk_materialize(repeats: int = 5,
                            chunks: int = MATERIALIZE_CHUNKS) -> dict:
    """Descriptor-mode stream consumption through batch windows.

    The seed baseline drove ``VdbenchStream.chunks`` one chunk at a
    time; the batched path emits :class:`~repro.chunkbatch.ChunkBatch`
    windows and materializes them through the hoisted fast constructor.
    """
    def run() -> None:
        stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=42)
        for _ in stream.chunks_batched(chunks, MATERIALIZE_WINDOW):
            pass

    seconds = best_of(run, repeats)
    return rate_entry("chunk_materialize", chunks, seconds,
                       "chunks_per_s", BASELINE_RATES)


def bench_fingerprint_window(repeats: int = 5,
                             passes: int = WINDOW_PASSES) -> dict:
    """Batched SHA-1 pass with the payload-hash memo, dup-heavy window.

    The seed baseline called ``fingerprint_chunk`` per chunk (one fresh
    SHA-1 each); the batched pass resolves duplicate payloads through
    the LRU memo.  The memo is built inside the repeat so every repeat
    pays the cold first pass, exactly like the baseline did.
    """
    window = _payload_window()

    def run() -> None:
        memo = PayloadHashMemo()
        for _ in range(passes):
            fingerprint_window(window, memo=memo)

    seconds = best_of(run, repeats)
    return rate_entry("fingerprint_window", len(window) * passes,
                       seconds, "chunks_per_s", BASELINE_RATES)


def bench_codec_dispatch(repeats: int = 5,
                         passes: int = WINDOW_PASSES) -> dict:
    """Grouped codec dispatch with a warm codec memo, same window.

    The seed baseline compressed chunk-by-chunk against a warm
    :class:`CodecMemo`; the batched dispatch groups the window by
    content key so duplicate payloads replay the group result without
    touching the codec (or even the memo).
    """
    window = _payload_window()
    fingerprint_window(window, memo=PayloadHashMemo())
    # Memo and compressor live across repeats, exactly like the seed
    # baseline measurement: best-of picks the warm-memo repeats, so the
    # scenario measures dispatch, not first-touch encoding.
    comp = CpuCompressor(memo=CodecMemo(capacity=2048))

    def run() -> None:
        for _ in range(passes):
            comp.compress_window(window)

    seconds = best_of(run, repeats)
    return rate_entry("codec_dispatch", len(window) * passes, seconds,
                       "chunks_per_s", BASELINE_RATES)


def bench_destage_account(repeats: int = 5) -> dict:
    """FTL fill + churn through the batched page-accounting run.

    The seed baseline issued one ``Ftl.write`` per page; ``write_run``
    amortizes the per-call dispatch while keeping the GC trigger check
    at every write (state-identical by construction).
    """
    total = FTL_BLOCKS * FTL_PAGES_PER_BLOCK
    fill = list(range(int(total * 0.80)))
    rng = random.Random(5)
    churn = [rng.randrange(len(fill)) for _ in range(len(fill) * 8)]

    def run() -> None:
        ftl = Ftl(FtlSpec(blocks=FTL_BLOCKS,
                          pages_per_block=FTL_PAGES_PER_BLOCK))
        ftl.write_run(fill)
        ftl.write_run(churn)

    seconds = best_of(run, repeats)
    return rate_entry("destage_account", len(fill) + len(churn),
                       seconds, "pages_per_s", BASELINE_RATES)


# -- driver -----------------------------------------------------------------

def run_pipeline_bench(quick: bool = False, profile: bool = False,
                       out_path: Optional[str] = "BENCH_pipeline.json",
                       trace_path: Optional[str] = None) -> dict:
    """Run all scenarios; write ``BENCH_pipeline.json``; return the dict.

    ``quick`` trims repeats and skips the (slow) full-size E4 field
    re-run — the per-mode report-digest check still runs, so CI keeps
    full identity coverage of the batched plane.
    ``trace_path`` additionally runs one traced ``gpu_comp`` pipeline
    (the calibration-best mode the batched feeder serves) and writes
    its Chrome trace there.
    """
    from repro.bench.dedup import check_golden_reports
    from repro.core.modes import IntegrationMode

    profiler = start_profile(profile)
    repeats = 2 if quick else 5
    results: dict[str, Any] = {
        "bench": "pipeline-functional-plane",
        "quick": quick,
        "chunk_materialize": bench_chunk_materialize(repeats=repeats),
        "fingerprint_window": bench_fingerprint_window(repeats=repeats),
        "codec_dispatch": bench_codec_dispatch(repeats=repeats),
        "destage_account": bench_destage_account(repeats=repeats),
        "golden_reports": check_golden_reports(),
    }
    if not quick:
        from repro.bench.dataplane import check_golden_e4
        results["golden_e4"] = check_golden_e4()
    fold_fields_ok(results, ("golden_reports", "golden_e4"))
    set_aggregate(results, BASELINE_RATES, REQUIRED_PIPELINE_SPEEDUP)
    attach_profile(profiler, results)
    attach_trace(results, trace_path, IntegrationMode.GPU_COMP,
                 2048 if quick else 8192)
    write_results(results, out_path)
    return results


def render_pipeline_bench(results: dict) -> str:
    """Human-readable summary of :func:`run_pipeline_bench` output."""
    lines = []
    units = {"chunk_materialize": "chunks_per_s",
             "fingerprint_window": "chunks_per_s",
             "codec_dispatch": "chunks_per_s",
             "destage_account": "pages_per_s"}
    render_rate_lines(results, units, lines)
    render_identity_lines(results, ("golden_reports", "golden_e4"), lines)
    return render_tail(results, lines)
