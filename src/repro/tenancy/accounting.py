"""Per-tenant accounting: inline hit rates and SLO latency histograms.

The obs layer's critical-path machinery attributes *where* time went;
this module attributes *whose* chunks it was.  One slotted counter
block per tenant (chunks, inline hits, stored, inline skips, chunks
recovered by compaction) plus a per-tenant
:class:`~repro.sim.histogram.LatencyHistogram` for SLO percentiles —
the same log-bucketed histogram the pipeline's aggregate latency uses,
so per-tenant p99s are directly comparable to the report's.
"""

from __future__ import annotations

from repro.sim.histogram import LatencyHistogram

__all__ = ["TenantAccounting", "TenantCounters"]


class TenantCounters:
    """One tenant's admission counters."""

    __slots__ = ("chunks", "inline_hits", "stored", "skips", "recovered")

    def __init__(self):
        self.chunks = 0
        self.inline_hits = 0
        self.stored = 0
        self.skips = 0
        self.recovered = 0

    @property
    def inline_hit_rate(self) -> float:
        """Inline cache hits over chunks seen."""
        return self.inline_hits / self.chunks if self.chunks else 0.0


class TenantAccounting:
    """Counters and latency histograms for every tenant seen."""

    __slots__ = ("_counters", "_latency")

    def __init__(self):
        self._counters: dict[int, TenantCounters] = {}
        self._latency: dict[int, LatencyHistogram] = {}

    def _tenant(self, tenant: int) -> TenantCounters:
        counters = self._counters.get(tenant)
        if counters is None:
            counters = TenantCounters()
            self._counters[tenant] = counters
        return counters

    # -- admission events ----------------------------------------------------

    def note_chunk(self, tenant: int) -> None:
        self._tenant(tenant).chunks += 1

    def note_hit(self, tenant: int) -> None:
        self._tenant(tenant).inline_hits += 1

    def note_stored(self, tenant: int) -> None:
        self._tenant(tenant).stored += 1

    def note_skip(self, tenant: int) -> None:
        self._tenant(tenant).skips += 1

    def note_recovered(self, tenant: int) -> None:
        self._tenant(tenant).recovered += 1

    def record_latency(self, tenant: int, seconds: float) -> None:
        histogram = self._latency.get(tenant)
        if histogram is None:
            histogram = LatencyHistogram()
            self._latency[tenant] = histogram
        histogram.record(seconds)

    # -- readouts ------------------------------------------------------------

    def tenants(self) -> list[int]:
        """Tenant ids in first-seen order."""
        return list(self._counters)

    def counters(self, tenant: int) -> TenantCounters:
        return self._tenant(tenant)

    def latency_summary(self, tenant: int) -> dict[str, float]:
        """SLO percentile summary (empty histogram reads all-zero)."""
        histogram = self._latency.get(tenant)
        if histogram is None:
            return {"mean": 0.0, "p50": 0.0, "p99": 0.0, "p999": 0.0,
                    "max": 0.0, "overflow": 0}
        return histogram.summary()

    def aggregate_hit_rate(self) -> float:
        """Inline cache hits over chunks, across all tenants."""
        chunks = 0
        hits = 0
        for counters in self._counters.values():
            chunks += counters.chunks
            hits += counters.inline_hits
        return hits / chunks if chunks else 0.0

    def aggregate_inline_dedup_ratio(self) -> float:
        """Chunks over stored chunks (every chunk either hit or stored)."""
        chunks = 0
        stored = 0
        for counters in self._counters.values():
            chunks += counters.chunks
            stored += counters.stored
        return chunks / stored if stored else 1.0
