"""Per-layer metrics of one traced repetition.

Three sources, kept apart: span times (host time, noisy, divided by the
host speed factor), ``cProfile`` call counts (exact), and the program's
own public reports and statistics (exact; simulated quantities are
labelled ``sim``).  A metric whose source is missing on a workload —
no GPU in ``payload_cpu``, no volume in ``desc_fit``, a wrap target a
refactor removed — is ``None`` here and ``0`` on the driver's line.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from e2ebench.hostclock import quartiles
from e2ebench.ledger import LAYERS, SpanSummary
from e2ebench.metrics import PAPER_GPU_COMP_GAIN_PCT, PER_LAYER
from e2ebench.workloads import Outcome, Workload

_DEDUP_TARGETS = (
    "DedupEngine.cpu_index", "DedupEngine.cpu_index_partial",
    "DedupEngine.commit_unique", "DedupEngine.commit_duplicate",
    "DedupEngine.note_gpu_hit", "GpuBinIndex.make_kernel",
    "GpuBinIndex.record_results", "GpuBinIndex.install_views")
_METADATA_TARGETS = (
    "MetadataStore.lookup", "MetadataStore.store_unique",
    "MetadataStore.map_logical", "MetadataStore.resolve")


@dataclasses.dataclass
class TraceData:
    workload: Workload
    outcome: Outcome
    summary: SpanSummary
    #: Host slowdown factor over the span pass's timed regions.
    speed: float
    layer_calls: dict[str, float]
    calls_by_name: dict[str, int]
    captured: dict[str, list]
    untraced_cost: float
    span_cost: float
    #: ``{mode: PipelineReport}`` of integration modes run only to fill
    #: the per-mode simulated throughput (desc_steady).
    companions: dict[str, Any]


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def _hit_ratio(memos: list) -> Optional[float]:
    """hits / probes over memo objects exposing ``stats()``."""
    stats = [memo.stats() for memo in memos]
    hits = sum(stat["hits"] for stat in stats)
    return _ratio(hits, hits + sum(stat["misses"] for stat in stats))


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def derive(data: TraceData) -> dict[str, Optional[float]]:
    """Every per-layer metric by name (``None`` where it does not apply)."""
    summary, ops = data.summary, data.workload.ops
    out: dict[str, Optional[float]] = {m.name: None for m in PER_LAYER}

    def us_per(seconds: float, count: float) -> Optional[float]:
        if not seconds or not count:
            return None
        return seconds / data.speed / count * 1e6

    for layer in LAYERS:
        out[f"{layer}.self_share"] = _ratio(summary.self_s[layer],
                                            summary.wall)
        out[f"{layer}.pycalls_per_chunk"] = data.layer_calls[layer] / ops

    events = data.calls_by_name.get("sim/engine.py:Environment.step", 0)
    charges = data.calls_by_name.get("cpu/model.py:SimCpu.charge", 0)
    out["sim.events_per_chunk"] = events / ops if events else None
    out["sim.host_us_per_event"] = us_per(summary.self_s["sim"], events)
    out["cpu.charges_per_chunk"] = charges / ops if charges else None

    out["workload.gen_us_per_chunk"] = us_per(
        summary.group("VdbenchStream.next_batch",
                      "VdbenchStream.next_chunk"), ops)
    out["dedup.hash_us_per_chunk"] = us_per(
        summary.group("fingerprint_window", "fingerprint_chunk"), ops)
    out["dedup.index_us_per_chunk"] = us_per(
        summary.group(*_DEDUP_TARGETS), ops)
    out["compression.cpu_encode_us_per_chunk"] = us_per(
        summary.group("CpuCompressor.compress",
                      "CpuCompressor.compress_window"), ops)
    out["compression.postprocess_us_per_chunk"] = us_per(
        summary.group("GpuCompressor.postprocess"), ops)
    out["compression.decode_us_per_chunk"] = us_per(
        summary.group("CpuCompressor.decompress"),
        summary.calls("CpuCompressor.decompress"))
    out["gpu.lz_kernel_us_per_chunk"] = us_per(
        summary.group("SegmentLzKernel.execute",
                      "DescriptorLzKernel.execute"), ops)
    out["storage.metadata_us_per_chunk"] = us_per(
        summary.group(*_METADATA_TARGETS), ops)
    out["tenancy.admit_us_per_chunk"] = us_per(
        summary.group("TenancyController.admit"), ops)

    if data.captured.get("hash_memo"):
        out["dedup.hash_memo_hit_ratio"] = _hit_ratio(
            data.captured["hash_memo"])

    _pipeline_metrics(data, out, us_per)
    _volume_metrics(data, out, us_per)

    out["obs.ledger_coverage"] = summary.coverage
    out["obs.trace_overhead_pct"] = \
        (data.span_cost / data.untraced_cost - 1.0) * 100.0
    out["obs.host_speed_factor"] = data.speed
    return out


def _pipeline_metrics(data: TraceData, out: dict, us_per) -> None:
    reports = data.outcome.reports.get("pipeline")
    if not reports:
        return
    runs = list(reports.values())
    for key in ("flushes", "buffer_hits", "pending_hits", "tree_hits",
                "gpu_hits"):
        out[f"dedup.{key}"] = sum(r.counters.get(key, 0) for r in runs)
    streams = data.captured.get("stream", [])
    emitted = sum(s.stats.chunks - s.stats.uniques for s in streams)
    found = sum(r.chunks * (1.0 - 1.0 / r.dedup_ratio) for r in runs)
    out["dedup.found_ratio"] = _ratio(found, emitted)
    out["compression.achieved_ratio"] = \
        sum(r.comp_ratio for r in runs) / len(runs)
    out["gpu.kernels"] = sum(r.gpu_kernels for r in runs)
    out["gpu.sim_utilization"] = _mean(r.gpu_utilization for r in runs)
    out["gpu.sim_mean_queue_wait_us"] = \
        _mean(r.gpu_mean_queue_wait_s for r in runs) * 1e6
    out["cpu.sim_utilization"] = _mean(r.cpu_utilization for r in runs)
    out["storage.sim_ssd_utilization"] = \
        _mean(r.ssd_utilization for r in runs)
    out["storage.destage_batches"] = sum(r.destage_batches for r in runs)
    out["storage.nand_bytes_per_user_byte"] = _ratio(
        sum(r.nand_bytes_written for r in runs),
        sum(r.bytes_in for r in runs))
    out["core.sim_p99_latency_us"] = \
        _mean(r.latency_percentiles["p99"] for r in runs) * 1e6

    by_mode = {**data.companions, **reports}
    for mode, report in by_mode.items():
        out[f"core.sim_kiops.{mode}"] = report.iops / 1e3
    if data.workload.paper_stream and "gpu_comp" in by_mode \
            and "cpu_only" in by_mode:
        gain = (by_mode["gpu_comp"].iops / by_mode["cpu_only"].iops
                - 1.0) * 100.0
        out["core.paper_gap_pp"] = abs(gain - PAPER_GPU_COMP_GAIN_PCT)

    # Memo and batcher statistics live on the pipeline objects the
    # ReductionPipeline.run wrapper saw; read their public surface only.
    pipelines = data.captured.get("pipeline", [])
    memos = [p.gpu_comp.memo for p in pipelines
             if getattr(p.gpu_comp, "memo", None) is not None]
    if memos:
        out["compression.memo_hit_ratio"] = _hit_ratio(memos)
    fills, queries = [], 0
    for pipeline in pipelines:
        snapshot = pipeline.publish_metrics().snapshot()
        for name, value in snapshot.items():
            if name.endswith(".fill_fraction") and value:
                fills.append(value)
        queries += snapshot.get("batcher.gpu-index.items_processed", 0)
    if fills:
        out["gpu.batch_fill_ratio"] = sum(fills) / len(fills)
    out["gpu.index_kernel_us_per_query"] = us_per(
        data.summary.group("BinLookupKernel.execute",
                           "TiledBinLookupKernel.execute"), queries)

    tenancy = data.outcome.reports.get("tenancy")
    if tenancy is not None:
        out["tenancy.inline_hit_ratio"] = tenancy.inline_hit_rate
        out["tenancy.skips"] = sum(t.skips for t in tenancy.tenants)
        out["tenancy.recovery_fraction"] = tenancy.recovery_fraction
        out["tenancy.compaction_epochs"] = tenancy.compaction.get("epochs")


def _volume_metrics(data: TraceData, out: dict, us_per) -> None:
    volume = data.outcome.reports.get("volume")
    if volume is None:
        return
    summary = data.summary
    out["compression.achieved_ratio"] = volume.compressor.achieved_ratio()
    samples = 0
    for call, key in (("ReducedVolume.write", "volume_write"),
                      ("ReducedVolume.read", "volume_read")):
        durations = summary.durations.get(call)
        if not durations:
            continue
        samples += len(durations)
        _, median, _ = quartiles(durations)
        out[f"storage.{key}_p50_us"] = median / data.speed * 1e6
        out[f"storage.{key}_p99_us"] = \
            _percentile(durations, 0.99) / data.speed * 1e6
    out["storage.latency_samples"] = samples or None
    scrub_s = summary.group("ReducedVolume.restart", "ReducedVolume.scrub")
    out["storage.restart_scrub_s"] = \
        scrub_s / data.speed if scrub_s else None
    read_report = data.outcome.reports["read_report"]
    out["core.readpath_sim_kiops"] = read_report.iops / 1e3
    out["cpu.sim_utilization"] = read_report.cpu_utilization
    out["storage.sim_ssd_utilization"] = read_report.ssd_utilization


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)
