"""Pipeline run reports.

Everything the paper's evaluation section talks about, in one record:
throughput (IOPS / MB/s, the paper's y-axes), the Fig. 1 decision-edge
counters, resource utilizations, achieved reduction ratios, and the
destage/endurance numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.stages import (
    CTR_BUFFER_HITS,
    CTR_GPU_HITS,
    CTR_RACE_DUPLICATES,
    CTR_TREE_HITS,
)


@dataclass
class PipelineReport:
    """Outcome of one timed pipeline run."""

    # -- throughput (the paper's headline axis) --
    chunks: int
    bytes_in: int
    duration_s: float

    # -- Fig. 1 decision edges --
    counters: dict[str, int]

    # -- resource usage --
    cpu_utilization: float
    gpu_utilization: float
    ssd_utilization: float
    gpu_kernels: int
    gpu_mean_queue_wait_s: float

    # -- reduction outcome --
    dedup_ratio: float
    comp_ratio: float
    reduction_ratio: float

    # -- destage / endurance --
    destage_batches: int
    destage_bytes: int
    nand_bytes_written: int

    # -- inline latency (admission to completion, per chunk) --
    mean_latency_s: float = 0.0
    peak_latency_s: float = 0.0
    #: mean/p50/p99/p999/max from the latency histogram.
    latency_percentiles: dict[str, float] = field(default_factory=dict)

    # -- context --
    mode: str = ""
    label: str = ""

    @property
    def iops(self) -> float:
        """Chunks (4 KiB I/Os in the paper's setup) per second."""
        return self.chunks / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def mb_per_s(self) -> float:
        """Ingest throughput in MB/s."""
        if self.duration_s <= 0:
            return 0.0
        return self.bytes_in / self.duration_s / 1e6

    @property
    def duplicates_found(self) -> int:
        """Chunks resolved as duplicates on any path."""
        return (self.counters.get(CTR_GPU_HITS, 0)
                + self.counters.get(CTR_BUFFER_HITS, 0)
                + self.counters.get(CTR_TREE_HITS, 0)
                + self.counters.get(CTR_RACE_DUPLICATES, 0))

    def speedup_over(self, other: "PipelineReport") -> float:
        """This run's throughput relative to ``other``'s."""
        if other.iops <= 0:
            return float("inf")
        return self.iops / other.iops
