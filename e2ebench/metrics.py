"""The metric tables: names, units, directions, bounds, predictions.

``BENCHMARK.json`` at the repository root repeats the names, units,
directions and bounds (``tests/test_e2e_contract.py`` keeps the two
equal); which end-to-end metric each per-layer metric should move, on
which workloads, is the interaction list in ``README.md``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from e2ebench.ledger import LAYERS


class Metric(NamedTuple):
    name: str
    unit: str
    better: str          # "higher" or "lower"
    bound: Optional[float]  # end-to-end only: share of the base's median
    meaning: str


END_TO_END = (
    Metric("chunks_per_s", "1/s", "higher", 0.25,
           "verified 4 KiB chunk operations on the workload's timed path "
           "per second of host time at the host's nominal speed (writes; "
           "reads on volume_read); x4096/1e6 = MB/s"),
    Metric("sim_kiops", "kiops", "higher", 0.08,
           "simulated K IOPS (the paper's y-axis): geometric mean over the "
           "modes run and the first four repetitions; on the volume "
           "workloads the simulated read path.  Simulated time, not host "
           "time"),
    Metric("stored_per_user_byte", "ratio", "lower", 0.10,
           "physical bytes / logical bytes after a repetition "
           "(1 / reduction_ratio; mean of the first four): guards 'faster "
           "codec, worse ratio'"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           "ru_maxrss at the end of the run process"),
    Metric("setup_s", "s", "lower", 0.25,
           "import + median input preparation + warm-up repetition, at "
           "the host's nominal speed: work moved out of the timed regions "
           "lands here"),
)


def _layer_metrics() -> tuple[Metric, ...]:
    out = []
    for layer in LAYERS:
        out.append(Metric(
            f"{layer}.self_share", "share", "lower", None,
            f"span pass: self time of {layer}'s wrapped entry points / "
            "timed wall"))
        out.append(Metric(
            f"{layer}.pycalls_per_chunk", "1/chunk", "lower", None,
            f"count pass: Python + built-in calls charged to {layer} per "
            "chunk (exact)"))
    return tuple(out)


PER_LAYER = _layer_metrics() + (
    Metric("sim.events_per_chunk", "1/chunk", "lower", None,
           "ncalls(Environment.step) / chunks (exact)"),
    Metric("sim.host_us_per_event", "us", "lower", None,
           "Environment.run self time / events (includes the core and cpu "
           "generator frames the loop resumes)"),
    Metric("cpu.charges_per_chunk", "1/chunk", "lower", None,
           "ncalls(SimCpu.charge) / chunks (exact)"),
    Metric("workload.gen_us_per_chunk", "us", "lower", None,
           "VdbenchStream.next_batch/next_chunk inclusive time / chunks"),
    Metric("dedup.hash_us_per_chunk", "us", "lower", None,
           "fingerprint_window/fingerprint_chunk time / chunks"),
    Metric("dedup.hash_memo_hit_ratio", "ratio", "higher", None,
           "PayloadHashMemo hits / probes"),
    Metric("dedup.index_us_per_chunk", "us", "lower", None,
           "DedupEngine + GpuBinIndex entry points' time / chunks"),
    Metric("dedup.flushes", "count", "higher", None,
           "bin flushes (report counters)"),
    Metric("dedup.buffer_hits", "count", "higher", None,
           "duplicates resolved in the bin buffer"),
    Metric("dedup.pending_hits", "count", "higher", None,
           "duplicates resolved against an in-flight unique"),
    Metric("dedup.tree_hits", "count", "higher", None,
           "duplicates resolved in a bin tree"),
    Metric("dedup.gpu_hits", "count", "higher", None,
           "duplicates resolved by a GPU bin lookup"),
    Metric("dedup.found_ratio", "ratio", "higher", None,
           "duplicates resolved / duplicates the stream emitted"),
    Metric("compression.cpu_encode_us_per_chunk", "us", "lower", None,
           "CpuCompressor.compress/compress_window time / chunks"),
    Metric("compression.memo_hit_ratio", "ratio", "higher", None,
           "CodecMemo hits / probes"),
    Metric("compression.postprocess_us_per_chunk", "us", "lower", None,
           "GpuCompressor.postprocess time / chunks"),
    Metric("compression.decode_us_per_chunk", "us", "lower", None,
           "CpuCompressor.decompress time / chunk decoded (reads and "
           "scrub)"),
    Metric("compression.achieved_ratio", "ratio", "higher", None,
           "original / compressed bytes over everything compressed"),
    Metric("gpu.lz_kernel_us_per_chunk", "us", "lower", None,
           "SegmentLzKernel/DescriptorLzKernel.execute time / chunks"),
    Metric("gpu.index_kernel_us_per_query", "us", "lower", None,
           "BinLookupKernel.execute time / lookups batched"),
    Metric("gpu.kernels", "count", "lower", None,
           "kernels launched"),
    Metric("gpu.batch_fill_ratio", "ratio", "higher", None,
           "mean launch fill / batch size over the GPU batchers"),
    Metric("gpu.sim_utilization", "share", "higher", None,
           "SIMULATED GPU busy fraction"),
    Metric("gpu.sim_mean_queue_wait_us", "us", "lower", None,
           "SIMULATED mean wait in the device queue"),
    Metric("cpu.sim_utilization", "share", "higher", None,
           "SIMULATED CPU busy fraction"),
    Metric("storage.sim_ssd_utilization", "share", "lower", None,
           "SIMULATED SSD channel busy fraction"),
    Metric("storage.metadata_us_per_chunk", "us", "lower", None,
           "MetadataStore.lookup/store_unique/map_logical/resolve time / "
           "chunks"),
    Metric("storage.destage_batches", "count", "lower", None,
           "sequential destage writes issued"),
    Metric("storage.nand_bytes_per_user_byte", "ratio", "lower", None,
           "NAND bytes programmed / bytes ingested"),
    Metric("storage.volume_write_p50_us", "us", "lower", None,
           "per-call host latency of ReducedVolume.write, median"),
    Metric("storage.volume_write_p99_us", "us", "lower", None,
           "same, 99th percentile (2048 samples)"),
    Metric("storage.volume_read_p50_us", "us", "lower", None,
           "per-call host latency of ReducedVolume.read, median"),
    Metric("storage.volume_read_p99_us", "us", "lower", None,
           "same, 99th percentile (4096 samples)"),
    Metric("storage.latency_samples", "count", "higher", None,
           "samples behind the four volume percentiles"),
    Metric("storage.restart_scrub_s", "s", "lower", None,
           "ReducedVolume.restart + scrub time"),
    Metric("core.sim_kiops.cpu_only", "kiops", "higher", None,
           "SIMULATED K IOPS per integration mode"),
    Metric("core.sim_kiops.gpu_dedup", "kiops", "higher", None,
           "same"),
    Metric("core.sim_kiops.gpu_comp", "kiops", "higher", None,
           "same"),
    Metric("core.sim_kiops.gpu_both", "kiops", "higher", None,
           "same"),
    Metric("core.paper_gap_pp", "pp", "lower", None,
           "|SIMULATED gpu_comp gain over cpu_only - 89.7| in percentage "
           "points (the paper's headline; the model is otherwise "
           "unvalidated)"),
    Metric("core.sim_p99_latency_us", "us", "lower", None,
           "SIMULATED p99 inline latency"),
    Metric("core.readpath_sim_kiops", "kiops", "higher", None,
           "SIMULATED read-path K IOPS"),
    Metric("tenancy.admit_us_per_chunk", "us", "lower", None,
           "TenancyController.admit time / chunks"),
    Metric("tenancy.inline_hit_ratio", "ratio", "higher", None,
           "inline cache hits / chunks"),
    Metric("tenancy.skips", "count", "lower", None,
           "chunks that skipped inline dedup"),
    Metric("tenancy.recovery_fraction", "ratio", "higher", None,
           "effective / oracle dedup ratio after compaction"),
    Metric("tenancy.compaction_epochs", "count", "lower", None,
           "out-of-line compaction epochs"),
    Metric("obs.ledger_coverage", "share", "higher", None,
           "root spans' time / timed wall; below 0.95 the trace fails"),
    Metric("obs.trace_overhead_pct", "%", "lower", None,
           "span pass cost vs the untraced repetition"),
    Metric("obs.host_speed_factor", "ratio", "lower", None,
           "reference-kernel time during the span pass / nominal (1.0 = "
           "nominal; divide a normalised rate by it for raw wall-clock)"),
)

PAPER_GPU_COMP_GAIN_PCT = 89.7

MIN_COVERAGE = 0.95
