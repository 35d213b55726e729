"""End-to-end multi-tenant runs (the ``repro run --tenants`` path).

:func:`run_tenant_mix` runs on the platform
:func:`repro.core.calibration.run_stream` builds — the one
:func:`~repro.core.calibration.run_mode` uses — but feeds the pipeline
a :class:`~repro.tenancy.spec.TenantMixStream` instead of a single
vdbench stream and folds the admission controller's per-tenant
accounting into a :class:`TenancyRunReport` next to the ordinary
:class:`~repro.core.stats.PipelineReport`.

This module lives outside the package root's import surface on
purpose: it drives :mod:`repro.core`, whose pipeline imports
``repro.tenancy`` — importing the runner from ``__init__`` would close
that cycle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from repro.core.calibration import run_stream
from repro.core.config import IntegrationMode, PipelineConfig
from repro.core.pipeline import ReductionPipeline
from repro.core.stats import PipelineReport
from repro.cpu.model import CpuSpec, I7_2600K
from repro.gpu.device import GpuSpec, RADEON_HD_7970
from repro.obs.tracer import SimTracer
from repro.tenancy.spec import TenantMix, TenantMixStream

__all__ = ["TenancyRunReport", "TenantReportEntry", "run_tenant_mix"]


@dataclass
class TenantReportEntry:
    """One tenant's slice of a multi-tenant run."""

    name: str
    tenant: int
    chunks: int
    inline_hits: int
    stored: int
    skips: int
    recovered: int
    inline_hit_rate: float
    #: Ground-truth stream stats (what the tenant actually emitted).
    emitted_chunks: int
    emitted_uniques: int
    #: SLO percentiles from the per-tenant latency histogram.
    latency: dict = field(default_factory=dict)


@dataclass
class TenancyRunReport:
    """A multi-tenant run: the pipeline report plus tenancy readouts."""

    pipeline: PipelineReport
    policy: str
    tenants: tuple[TenantReportEntry, ...]
    #: Inline cache hits over chunks, across all tenants.
    inline_hit_rate: float
    #: Chunks over inline-stored chunks (inline-only dedup ratio).
    inline_dedup_ratio: float
    #: ``pipeline.dedup_ratio`` after the compaction drain — inline
    #: plus out-of-line recovery.
    effective_dedup_ratio: float
    #: Offline-oracle ratio of the emitted stream (ground truth).
    oracle_dedup_ratio: float
    #: effective / oracle: the fraction of achievable dedup realized.
    recovery_fraction: float
    #: Lifetime compaction counters (epochs, recovered, reclaimed).
    compaction: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready mapping (dataclasses all the way down)."""
        return asdict(self)


def run_tenant_mix(mix: TenantMix, mode: IntegrationMode, n_chunks: int,
                   base_config: Optional[PipelineConfig] = None,
                   cpu_spec: CpuSpec = I7_2600K,
                   gpu_spec: Optional[GpuSpec] = RADEON_HD_7970,
                   tracer: Optional[SimTracer] = None,
                   payload: bool = False) -> TenancyRunReport:
    """Run a tenant mix through one integration mode; full report.

    The platform is :func:`~repro.core.calibration.run_stream`'s, so a
    one-tenant mix under the default ``tenancy_policy="none"`` produces
    a :class:`PipelineReport` byte-identical to
    :func:`~repro.core.calibration.run_mode`'s.
    """
    config = replace(base_config or PipelineConfig(), mode=mode)
    stream = TenantMixStream(mix, payload=payload)
    pipeline, report = run_stream(stream, n_chunks, config,
                                  cpu_spec=cpu_spec, gpu_spec=gpu_spec,
                                  tracer=tracer)
    return _fold_report(pipeline, report, mix, stream)


def _fold_report(pipeline: ReductionPipeline, report: PipelineReport,
                 mix: TenantMix,
                 stream: TenantMixStream) -> TenancyRunReport:
    """Join pipeline output with per-tenant accounting and ground truth."""
    oracle = stream.oracle_dedup_ratio()
    stats = stream.stats()
    controller = pipeline.tenancy
    entries = []
    for tenant, spec in enumerate(mix.tenants):
        emitted = stats[tenant]
        if controller is not None:
            counters = controller.accounting.counters(tenant)
            latency = controller.accounting.latency_summary(tenant)
            entries.append(TenantReportEntry(
                name=spec.name, tenant=tenant,
                chunks=counters.chunks,
                inline_hits=counters.inline_hits,
                stored=counters.stored,
                skips=counters.skips,
                recovered=counters.recovered,
                inline_hit_rate=counters.inline_hit_rate,
                emitted_chunks=emitted.chunks,
                emitted_uniques=emitted.uniques,
                latency=latency))
        else:
            entries.append(TenantReportEntry(
                name=spec.name, tenant=tenant,
                chunks=emitted.chunks, inline_hits=0, stored=0,
                skips=0, recovered=0, inline_hit_rate=0.0,
                emitted_chunks=emitted.chunks,
                emitted_uniques=emitted.uniques,
                latency={}))
    if controller is not None:
        policy = controller.policy
        hit_rate = controller.accounting.aggregate_hit_rate()
        inline_ratio = \
            controller.accounting.aggregate_inline_dedup_ratio()
        compaction = controller.compaction.counters()
    else:
        policy = "none"
        hit_rate = 0.0
        inline_ratio = report.dedup_ratio
        compaction = {}
    recovery = (report.dedup_ratio / oracle) if oracle > 0 else 1.0
    return TenancyRunReport(
        pipeline=report,
        policy=policy,
        tenants=tuple(entries),
        inline_hit_rate=hit_rate,
        inline_dedup_ratio=inline_ratio,
        effective_dedup_ratio=report.dedup_ratio,
        oracle_dedup_ratio=oracle,
        recovery_fraction=recovery,
        compaction=compaction,
    )
