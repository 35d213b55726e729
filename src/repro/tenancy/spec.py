"""Multi-tenant workload specification and interleaved emission.

A :class:`TenantSpec` dials one tenant's stream (its own vdbench seed,
dedup ratio, locality/working-set skew, client count, optional open-loop
arrival rate); a :class:`TenantMix` gathers tenants plus a mix-level
scheduling seed.  :class:`TenantMixStream` emits the interleaved chunk
stream through the existing :class:`~repro.workload.vdbench.VdbenchStream`
machinery, tagging every chunk with its tenant id.

RNG discipline: scheduling draws — which tenant's stream emits
next — come only from the mix-level parent ``random.Random(mix.seed)``;
each tenant's content draws stay inside its own seeded stream.  A
one-tenant mix takes a shortcut that consumes *no* parent draws, so its
chunk stream is the plain single-stream ``VdbenchStream`` output
(tenant tag aside) — the degenerate-identity argument the equivalence
suite pins byte-for-byte.

Closed-loop mixes pick the next tenant by effective weight
(``weight * clients`` — a tenant fronting a million simulated clients
is just a heavier draw, so "millions of clients" costs nothing);
open-loop mixes race per-tenant Poisson arrival clocks
(``expovariate(rate * clients)``) and emit whichever tenant is due
first.  Tenants write disjoint logical address ranges
(:data:`TENANT_ADDRESS_STRIDE` apart) so interleaved streams never
collide in the metadata store's logical map.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from typing import Iterator, Optional

from repro.errors import WorkloadError
from repro.types import Chunk, DEFAULT_CHUNK_SIZE
from repro.workload.vdbench import StreamStats, VdbenchStream

__all__ = ["TENANT_ADDRESS_STRIDE", "TenantMix", "TenantMixStream",
           "TenantSpec"]

#: Logical address stride between tenants (16 TiB apart): tenant ``i``
#: writes offsets ``[i * stride, ...)``.  Tenant 0 starts at offset 0,
#: so a one-tenant mix reproduces single-stream offsets exactly.
TENANT_ADDRESS_STRIDE = 1 << 44


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's workload dials (its stream seed is required)."""

    name: str
    seed: int
    weight: float = 1.0
    dedup_ratio: float = 2.0
    comp_ratio: float = 2.0
    locality: float = 0.5
    working_set: int = 128
    clients: int = 1
    arrival_rate_iops: Optional[float] = None
    comp_spread: float = 0.15

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("tenant name must be non-empty")
        if self.weight <= 0:
            raise WorkloadError(
                f"tenant {self.name!r}: weight must be > 0, "
                f"got {self.weight}")
        if self.clients < 1:
            raise WorkloadError(
                f"tenant {self.name!r}: clients must be >= 1, "
                f"got {self.clients}")
        if self.arrival_rate_iops is not None \
                and self.arrival_rate_iops <= 0:
            raise WorkloadError(
                f"tenant {self.name!r}: arrival_rate_iops must be "
                f"> 0, got {self.arrival_rate_iops}")

    @property
    def effective_weight(self) -> float:
        """Closed-loop draw weight: per-client weight times clients."""
        return self.weight * self.clients

    @property
    def total_rate_iops(self) -> Optional[float]:
        """Open-loop aggregate arrival rate across this tenant's clients."""
        if self.arrival_rate_iops is None:
            return None
        return self.arrival_rate_iops * self.clients


@dataclass(frozen=True)
class TenantMix:
    """A set of tenants plus the mix-level scheduling seed."""

    tenants: tuple[TenantSpec, ...]
    seed: int
    open_loop: bool = False

    def __post_init__(self) -> None:
        if not self.tenants:
            raise WorkloadError("a tenant mix needs at least one tenant")
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate tenant names in {names}")
        seeds = [spec.seed for spec in self.tenants]
        if len(set(seeds)) != len(seeds):
            raise WorkloadError(
                "tenant stream seeds must be distinct (shared seeds "
                "would alias fingerprints across tenants)")
        if self.open_loop:
            for spec in self.tenants:
                if spec.arrival_rate_iops is None:
                    raise WorkloadError(
                        f"open-loop mix: tenant {spec.name!r} has no "
                        f"arrival_rate_iops")

    @property
    def total_rate_iops(self) -> Optional[float]:
        """Aggregate open-loop arrival rate, when every tenant has one."""
        total = 0.0
        for spec in self.tenants:
            rate = spec.total_rate_iops
            if rate is None:
                return None
            total += rate
        return total

    def to_dict(self) -> dict:
        """JSON-ready mapping (round-trips through :meth:`from_dict`)."""
        return {"seed": self.seed, "open_loop": self.open_loop,
                "tenants": [asdict(spec) for spec in self.tenants]}

    @classmethod
    def from_dict(cls, payload: dict) -> "TenantMix":
        """Build a mix from a ``to_dict``-shaped mapping."""
        try:
            tenants = tuple(TenantSpec(**entry)
                            for entry in payload["tenants"])
            return cls(tenants=tenants, seed=payload["seed"],
                       open_loop=bool(payload.get("open_loop", False)))
        except (KeyError, TypeError) as exc:
            raise WorkloadError(f"bad tenant-mix spec: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "TenantMix":
        """Parse a JSON tenant-mix spec (the ``--tenants`` file format)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WorkloadError(f"bad tenant-mix JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise WorkloadError("tenant-mix spec must be a JSON object")
        return cls.from_dict(payload)


@dataclass
class _OpenLoopClock:
    """One tenant's Poisson arrival clock (open-loop scheduling)."""

    rate: float
    next_due: float = field(default=0.0)


class TenantMixStream:
    """Interleaved multi-tenant chunk stream over per-tenant vdbench."""

    def __init__(self, mix: TenantMix,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 payload: bool = False):
        self.mix = mix
        self.chunk_size = chunk_size
        #: Scheduling-only parent RNG (never handed to tenants).
        self._sched_rng = random.Random(mix.seed)
        self.streams: list[VdbenchStream] = []
        for index, spec in enumerate(mix.tenants):
            self.streams.append(VdbenchStream(
                dedup_ratio=spec.dedup_ratio,
                comp_ratio=spec.comp_ratio,
                chunk_size=chunk_size,
                seed=spec.seed,
                payload=payload,
                comp_spread=spec.comp_spread,
                locality=spec.locality,
                working_set=spec.working_set,
                offset_base=index * TENANT_ADDRESS_STRIDE))
        #: Closed-loop cumulative effective weights for bisect picks.
        self._cumulative: list[float] = []
        total = 0.0
        for spec in mix.tenants:
            total += spec.effective_weight
            self._cumulative.append(total)
        self._total_weight = total
        self._clocks: list[_OpenLoopClock] = []
        if mix.open_loop:
            for spec in mix.tenants:
                rate = spec.total_rate_iops
                assert rate is not None  # validated by TenantMix
                self._clocks.append(_OpenLoopClock(rate=rate))

    # -- scheduling ---------------------------------------------------------

    def _pick_tenant(self) -> int:
        """Index of the tenant emitting the next chunk.

        The one-tenant shortcut consumes no parent draws: a degenerate
        mix's chunk sequence is the plain single-stream sequence.
        """
        if len(self.streams) == 1:
            return 0
        if self.mix.open_loop:
            clocks = self._clocks
            best = 0
            best_due = clocks[0].next_due
            for index in range(1, len(clocks)):
                due = clocks[index].next_due
                if due < best_due:
                    best = index
                    best_due = due
            clock = clocks[best]
            clock.next_due = best_due + \
                self._sched_rng.expovariate(clock.rate)
            return best
        point = self._sched_rng.random() * self._total_weight
        return bisect_right(self._cumulative, point,
                            hi=len(self._cumulative) - 1)

    # -- emission -----------------------------------------------------------

    def next_chunk(self) -> Chunk:
        """Emit the next interleaved chunk, tagged with its tenant id."""
        tenant = self._pick_tenant()
        chunk = self.streams[tenant].next_chunk()
        chunk.tenant = tenant
        return chunk

    def chunks(self, n: int) -> Iterator[Chunk]:
        """Emit ``n`` interleaved chunks."""
        for _ in range(n):
            yield self.next_chunk()

    def chunks_batched(self, n: int,
                       window: int = 64) -> Iterator[Chunk]:
        """Emit ``n`` chunks, windowed through per-tenant batches.

        Scheduling picks for a window are drawn first (same parent-RNG
        order as :meth:`chunks`); each tenant's picks then collapse
        into one ``next_batch`` call, so every tenant stream consumes
        its own RNG in exactly the per-chunk order and the interleaved
        sequence is element-wise equal to the per-chunk path.
        """
        if window < 1:
            raise WorkloadError(f"window must be >= 1, got {window}")
        remaining = n
        while remaining > 0:
            take = window if window < remaining else remaining
            picks = [self._pick_tenant() for _ in range(take)]
            per_tenant: dict[int, int] = {}
            for tenant in picks:
                per_tenant[tenant] = per_tenant.get(tenant, 0) + 1
            materialized: dict[int, Iterator[Chunk]] = {}
            for tenant, count in per_tenant.items():
                batch = self.streams[tenant].next_batch(count)
                materialized[tenant] = iter(batch.materialize())
            for tenant in picks:
                chunk = next(materialized[tenant])
                chunk.tenant = tenant
                yield chunk
            remaining -= take

    # -- ground truth -------------------------------------------------------

    def stats(self) -> list[StreamStats]:
        """Per-tenant ground-truth stream statistics."""
        return [stream.stats for stream in self.streams]

    def oracle_dedup_ratio(self) -> float:
        """Offline-oracle dedup ratio of the interleaved stream.

        Tenant seeds are distinct, so fingerprints never alias across
        tenants and the union's ratio is total chunks over total
        uniques.
        """
        chunks = 0
        uniques = 0
        for stream in self.streams:
            chunks += stream.stats.chunks
            uniques += stream.stats.uniques
        return chunks / uniques if uniques else 1.0
