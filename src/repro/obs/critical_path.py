"""Critical-path attribution: where does a chunk's latency go?

Consumes the span stream of a traced run and answers the question the
paper's offload policy turns on: of the mean admission-to-completion
latency, how much is chunking, fingerprinting, the (CPU or GPU) bin
probe, compression, postprocess, commit — and within each stage, how
much is *queue wait* versus *service*?

Per-chunk stage spans tile the ``[admitted, completed]`` interval (the
pipeline records them back to back), so the per-stage mean attributions
must sum to ~100% of the mean chunk latency; the acceptance gate
requires ``coverage >= 0.95``.  Admission wait (before a window slot is
granted) and resource-track spans (destage, SSD channels, raw kernel
occupancy) are reported separately and excluded from coverage — they
are not part of the inline latency the histogram measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs.stages import (
    INLINE_STAGES,
    STAGE_ADMISSION,
    STAGE_CHUNK,
)
from repro.obs.tracer import Span
from repro.sim.histogram import LatencyHistogram


@dataclass
class StageBreakdown:
    """Aggregate statistics for one stage across all chunks."""

    stage: str
    spans: int = 0
    total_s: float = 0.0
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    #: Mean duration of this stage *per chunk that ran it*.
    mean_s: float = 0.0
    p50_s: float = 0.0
    p99_s: float = 0.0
    #: Mean attribution per admitted chunk (total / n_chunks) — the
    #: number that sums to the mean chunk latency across stages.
    mean_per_chunk_s: float = 0.0
    #: ``mean_per_chunk_s / mean_chunk_latency``.
    share_of_latency: float = 0.0

    def row(self) -> str:
        qw_pct = (100.0 * self.queue_wait_s / self.total_s
                  if self.total_s > 0 else 0.0)
        n = self.spans or 1
        return (f"{self.stage:<13} {self.spans:>7} "
                f"{self.mean_per_chunk_s * 1e6:>10.2f} "
                f"{100.0 * self.share_of_latency:>6.1f}% "
                f"{self.mean_s * 1e6:>10.2f} "
                f"{self.p50_s * 1e6:>10.2f} "
                f"{self.p99_s * 1e6:>10.2f} "
                f"{self.queue_wait_s / n * 1e6:>12.2f} "
                f"{self.service_s / n * 1e6:>12.2f} "
                f"{qw_pct:>5.1f}%")


def _aggregate(stage: str, group: list[Span], n_chunks: int,
               mean_latency: float) -> StageBreakdown:
    hist = LatencyHistogram()
    total = queue_wait = 0.0
    for span in group:
        total += span.duration
        queue_wait += span.queue_wait
        hist.record(span.duration)
    summary = hist.summary()
    per_chunk = total / n_chunks if n_chunks else 0.0
    return StageBreakdown(
        stage=stage,
        spans=len(group),
        total_s=total,
        queue_wait_s=queue_wait,
        service_s=total - queue_wait,
        mean_s=total / len(group) if group else 0.0,
        p50_s=summary["p50"],
        p99_s=summary["p99"],
        mean_per_chunk_s=per_chunk,
        share_of_latency=(per_chunk / mean_latency
                          if mean_latency > 0 else 0.0),
    )


@dataclass
class BatcherFill:
    """Launch fill statistics for one GPU batcher, from its item spans.

    Every item span carries its launch's ``batch`` size and completion
    time, so distinct launches are recovered as distinct ``(resource,
    end)`` pairs — the device queue is in-order, two launches of the
    same batcher never complete at the same instant.
    """

    name: str
    launches: int = 0
    mean_fill: float = 0.0
    p50_fill: float = 0.0

    def row(self) -> str:
        return (f"{self.name:<13} {self.launches:>7} "
                f"{self.mean_fill:>10.1f} {self.p50_fill:>10.1f}")


def _batcher_fills(spans: list[Span]) -> list[BatcherFill]:
    launches: dict[str, dict[float, int]] = {}
    for span in spans:
        attrs = span.attrs
        if not attrs or "batch" not in attrs or span.resource is None:
            continue
        launches.setdefault(span.resource, {})[span.end] = attrs["batch"]
    fills = []
    for name in sorted(launches):
        sizes = sorted(launches[name].values())
        n = len(sizes)
        fills.append(BatcherFill(
            name=name, launches=n,
            mean_fill=sum(sizes) / n,
            p50_fill=float(sizes[(n - 1) // 2])))
    return fills


@dataclass
class CriticalPathReport:
    """Stage-by-stage attribution of the mean inline chunk latency."""

    n_chunks: int = 0
    mean_latency_s: float = 0.0
    p50_latency_s: float = 0.0
    p99_latency_s: float = 0.0
    #: Sum of per-stage mean attributions / mean latency (target ~1.0).
    coverage: float = 0.0
    #: Workflow-ordered inline stages, then any unknown stages by name.
    stages: list[StageBreakdown] = field(default_factory=list)
    #: Admission wait (pre-latency) — reported, not counted in coverage.
    admission: Optional[StageBreakdown] = None
    #: Resource-track activity (destage, SSD, kernels) by stage name.
    background: list[StageBreakdown] = field(default_factory=list)
    #: Per-batcher launch fill (mean/P50 items per launch).
    batcher_fills: list[BatcherFill] = field(default_factory=list)

    @classmethod
    def from_spans(cls, spans: Iterable[Span]) -> "CriticalPathReport":
        chunk_envelopes: list[Span] = []
        admission: list[Span] = []
        inline: dict[str, list[Span]] = {}
        background: dict[str, list[Span]] = {}
        batched: list[Span] = []
        for span in spans:
            if span.attrs and "batch" in span.attrs:
                batched.append(span)
            if span.chunk_id is None:
                background.setdefault(span.stage, []).append(span)
            elif span.stage == STAGE_CHUNK:
                chunk_envelopes.append(span)
            elif span.stage == STAGE_ADMISSION:
                admission.append(span)
            else:
                inline.setdefault(span.stage, []).append(span)

        n_chunks = len(chunk_envelopes)
        latency_hist = LatencyHistogram()
        latency_total = 0.0
        for span in chunk_envelopes:
            latency_hist.record(span.duration)
            latency_total += span.duration
        mean_latency = latency_total / n_chunks if n_chunks else 0.0
        latency_summary = latency_hist.summary()

        ordered = [stage for stage in INLINE_STAGES if stage in inline]
        ordered += sorted(set(inline) - set(INLINE_STAGES))
        stages = [_aggregate(stage, inline[stage], n_chunks,
                             mean_latency) for stage in ordered]
        report = cls(
            n_chunks=n_chunks,
            mean_latency_s=mean_latency,
            p50_latency_s=latency_summary["p50"],
            p99_latency_s=latency_summary["p99"],
            coverage=sum(b.share_of_latency for b in stages),
            stages=stages,
            admission=(_aggregate(STAGE_ADMISSION, admission, n_chunks,
                                  mean_latency) if admission else None),
            background=[_aggregate(stage, background[stage], n_chunks,
                                   mean_latency)
                        for stage in sorted(background)],
            batcher_fills=_batcher_fills(batched),
        )
        return report

    def render(self) -> str:
        """Fixed-width text table (microsecond units)."""
        header = (f"{'stage':<13} {'spans':>7} {'us/chunk':>10} "
                  f"{'share':>7} {'mean us':>10} {'p50 us':>10} "
                  f"{'p99 us':>10} {'mean qw us':>12} {'mean svc us':>12} "
                  f"{'qw':>6}")
        lines = [
            f"critical path over {self.n_chunks} chunks: mean latency "
            f"{self.mean_latency_s * 1e6:.2f} us "
            f"(p50 {self.p50_latency_s * 1e6:.2f}, "
            f"p99 {self.p99_latency_s * 1e6:.2f}); "
            f"stage coverage {100.0 * self.coverage:.1f}%",
            header,
            "-" * len(header),
        ]
        lines += [b.row() for b in self.stages]
        if self.admission is not None:
            lines.append("-" * len(header))
            lines.append(self.admission.row())
        if self.background:
            lines.append("-" * len(header))
            lines.append("background (not on the inline path):")
            lines += [b.row() for b in self.background]
        if self.batcher_fills:
            lines.append("-" * len(header))
            lines.append(f"{'batcher fill':<13} {'launches':>7} "
                         f"{'mean':>10} {'p50':>10}")
            lines += [f.row() for f in self.batcher_fills]
        return "\n".join(lines)

    def to_json(self) -> str:
        def breakdown(b: StageBreakdown) -> dict:
            return {
                "stage": b.stage, "spans": b.spans,
                "total_s": b.total_s,
                "queue_wait_s": b.queue_wait_s,
                "service_s": b.service_s, "mean_s": b.mean_s,
                "p50_s": b.p50_s, "p99_s": b.p99_s,
                "mean_per_chunk_s": b.mean_per_chunk_s,
                "share_of_latency": b.share_of_latency,
            }

        return json.dumps({
            "n_chunks": self.n_chunks,
            "mean_latency_s": self.mean_latency_s,
            "p50_latency_s": self.p50_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "coverage": self.coverage,
            "stages": [breakdown(b) for b in self.stages],
            "admission": (breakdown(self.admission)
                          if self.admission else None),
            "background": [breakdown(b) for b in self.background],
            "batcher_fills": [{
                "name": f.name, "launches": f.launches,
                "mean_fill": f.mean_fill, "p50_fill": f.p50_fill,
            } for f in self.batcher_fills],
        }, indent=2)
