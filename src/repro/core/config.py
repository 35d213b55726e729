"""Pipeline configuration.

One dataclass gathers every knob the experiments sweep, with the paper's
evaluation setup as defaults (4 KiB chunks, dedup-before-compression,
2-byte bin prefix, random GPU-bin replacement).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.modes import IntegrationMode
from repro.errors import ConfigError
from repro.types import DEFAULT_CHUNK_SIZE


@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of the integrated reduction pipeline."""

    #: Which operations may use the GPU.
    mode: IntegrationMode = IntegrationMode.GPU_COMP
    #: Disable to run a compression-only pipeline (experiment E3).
    enable_dedup: bool = True
    #: Disable to run a dedup-only pipeline (experiment E2).
    enable_compression: bool = True

    # -- chunking ---------------------------------------------------------
    chunk_size: int = DEFAULT_CHUNK_SIZE

    # -- bin index ---------------------------------------------------------
    #: Fingerprint prefix bytes = bin selector.  The paper's memory
    #: argument uses a 2-byte prefix at 4 TB scale; the pipeline default
    #: of 1 keeps the bin count proportional to the 2 GB test streams so
    #: bins actually fill and flush (see DESIGN.md).
    prefix_bytes: int = 1
    #: Bin-buffer entries per bin before a flush.
    bin_buffer_capacity: int = 64
    #: Overall bin-buffer staging budget in entries.
    bin_buffer_total: int = 8192
    #: GPU linear-bin capacity in entries.
    gpu_bin_capacity: int = 4096

    # -- GPU batching -------------------------------------------------------
    #: Index lookups per GPU launch (small: the inline path is latency
    #: sensitive).
    gpu_index_batch: int = 256
    #: Chunks per GPU compression launch (large: compression wants
    #: occupancy).
    gpu_comp_batch: int = 256
    #: Longest a partially filled batch waits before launching anyway.
    gpu_batch_wait_s: float = 2e-3
    #: Use the local-memory tiled lookup kernel (paper §3.1(2)'s
    #: local-memory design) instead of the per-thread global scan.
    gpu_index_tiled: bool = False
    #: Priority scheduling on the device queue: waiting index batches
    #: overtake waiting compression batches.  Off by default — the
    #: paper's 2012-era runtime had a plain in-order queue; experiment
    #: A13 studies what this extension buys GPU_BOTH.
    gpu_queue_priority: bool = False

    # -- concurrency -------------------------------------------------------
    #: In-flight chunk window (bounds memory and queueing on the inline
    #: path; must exceed the GPU batch sizes or batches never fill).
    window: int = 1024
    #: When to send index lookups to the GPU: "saturation" is the
    #: paper's rule ("use GPU only when CPU utilization is full", i.e.
    #: at or above ``OffloadScheduler``'s 0.99 threshold); "always"
    #: models GHOST-style GPU-only indexing (Kim et al., the related
    #: work the paper critiques for ignoring the faster CPU); "never"
    #: keeps indexing on the CPU even in GPU modes.
    gpu_index_policy: str = "saturation"
    #: Index concurrency discipline: "bins" is the paper's lock-free
    #: partitioned design; "global" serializes every index operation
    #: through one lock, modelling the conventional shared hash table
    #: the bins replace (the P-Dedupe-class baseline of §5).
    index_locking: str = "bins"

    # -- batched functional plane -----------------------------------------
    #: Chunks per functional-plane window: the feeder materializes a
    #: window, fingerprints it in one batched hashing pass and, in
    #: dedup-disabled configurations, pre-dispatches its codec work.
    #: Only untimed functional work is batched — admission and every
    #: timed event stay per chunk — so reports do not depend on this
    #: value (DESIGN.md §12).
    functional_batch: int = 64

    # -- arrival shaping ------------------------------------------------------
    #: Open-loop arrival rate in chunks/second; None (default) feeds the
    #: pipeline as fast as the window admits (closed-loop, the
    #: throughput-measurement mode).  Paced arrivals expose *latency*
    #: behaviour below saturation — e.g. the GHOST-style "always offload
    #: indexing" policy paying a GPU batch round-trip per chunk.
    arrival_rate_iops: float | None = None

    # -- multi-tenant admission (repro.tenancy) ----------------------------
    #: Inline-admission policy for multi-tenant runs: "none" (default)
    #: keeps today's single-stream index path byte-identical;
    #: "shared_lru" models a conventional shared fingerprint cache;
    #: "prioritized" adds HPDedup-style locality estimation with
    #: per-tenant residency shares and inline-skip for low-locality
    #: streams (skipped chunks are recovered by out-of-line compaction).
    tenancy_policy: str = "none"
    #: Bounded inline fingerprint-cache budget (entries), shared across
    #: tenants under both non-default policies.  The estimator window,
    #: skip threshold, rebalance period and compaction batch are
    #: constants of :mod:`repro.tenancy.controller`.
    tenancy_cache_entries: int = 1024

    # -- destage -----------------------------------------------------------
    #: Destage writes to the SSD model (disable to isolate the reduction
    #: path, as the paper's operation-throughput numbers do implicitly).
    destage_enabled: bool = True

    # -- diagnostics -------------------------------------------------------
    #: Run the end-of-run sanitizer (``Environment.finish_check``) after
    #: the final drain: no live processes, no scheduled events, no held
    #: resource slots.  Off by default (it is a test/debug aid).
    finish_check: bool = False

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ConfigError(f"invalid chunk_size {self.chunk_size}")
        if not 1 <= self.prefix_bytes <= 4:
            raise ConfigError(f"invalid prefix_bytes {self.prefix_bytes}")
        if self.window < 1:
            raise ConfigError(f"invalid window {self.window}")
        if min(self.gpu_index_batch, self.gpu_comp_batch) < 1:
            raise ConfigError("GPU batch sizes must be >= 1")
        if self.gpu_batch_wait_s < 0:
            raise ConfigError("negative gpu_batch_wait_s")
        if self.window < max(self.gpu_index_batch, self.gpu_comp_batch) \
                and (self.mode.gpu_for_dedup
                     or self.mode.gpu_for_compression):
            raise ConfigError(
                f"window {self.window} smaller than the GPU batch size — "
                "batches would never fill")
        if self.functional_batch < 1:
            raise ConfigError(
                f"invalid functional_batch {self.functional_batch}")
        if not self.enable_dedup and not self.enable_compression:
            raise ConfigError("both reduction operations disabled")
        if self.gpu_index_policy not in ("saturation", "always", "never"):
            raise ConfigError(
                f"unknown gpu_index_policy {self.gpu_index_policy!r}")
        if self.index_locking not in ("bins", "global"):
            raise ConfigError(
                f"unknown index_locking {self.index_locking!r}")
        if self.tenancy_policy not in ("none", "shared_lru",
                                       "prioritized"):
            raise ConfigError(
                f"unknown tenancy_policy {self.tenancy_policy!r}")
        if self.tenancy_policy != "none":
            if not self.enable_dedup:
                raise ConfigError(
                    "tenancy admission needs enable_dedup=True")
            if self.tenancy_cache_entries < 1:
                raise ConfigError(
                    f"invalid tenancy_cache_entries "
                    f"{self.tenancy_cache_entries}")

    def with_overrides(self, **kwargs) -> "PipelineConfig":
        """Copy with the given fields replaced."""
        return replace(self, **kwargs)
