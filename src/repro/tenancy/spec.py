"""Multi-tenant workload specification and interleaved emission.

A :class:`TenantSpec` dials one tenant's stream (its own vdbench seed,
draw weight, dedup ratio, locality/working-set skew); a
:class:`TenantMix` gathers tenants plus a mix-level scheduling seed.
:class:`TenantMixStream` emits the interleaved chunk stream through the
existing :class:`~repro.workload.vdbench.VdbenchStream` machinery,
tagging every chunk with its tenant id.

RNG discipline: scheduling draws — which tenant's stream emits
next — come only from the mix-level parent ``random.Random(mix.seed)``;
each tenant's content draws stay inside its own seeded stream.  A
one-tenant mix takes a shortcut that consumes *no* parent draws, so its
chunk stream is the plain single-stream ``VdbenchStream`` output
(tenant tag aside) — the degenerate-identity argument the equivalence
suite pins byte-for-byte.

Mixes are closed-loop, as the paper's inline pipeline is: the next
tenant is drawn in proportion to its ``weight``.  Tenants write
disjoint logical address ranges (:data:`TENANT_ADDRESS_STRIDE` apart)
so interleaved streams never collide in the metadata store's logical
map.
"""

from __future__ import annotations

import json
import numbers
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

from repro.chunkbatch import window_sizes
from repro.errors import WorkloadError
from repro.types import Chunk
from repro.workload.vdbench import StreamStats, VdbenchStream

__all__ = ["TENANT_ADDRESS_STRIDE", "TenantMix", "TenantMixStream",
           "TenantSpec"]

#: Logical address stride between tenants (16 TiB apart): tenant ``i``
#: writes offsets ``[i * stride, ...)``.  Tenant 0 starts at offset 0,
#: so a one-tenant mix reproduces single-stream offsets exactly.
TENANT_ADDRESS_STRIDE = 1 << 44

#: TenantSpec fields that must be ints, and the dials that must be real
#: numbers.  ``bool`` is neither, although Python makes it an int.
_INT_FIELDS = ("seed", "working_set")
_REAL_FIELDS = ("weight", "dedup_ratio", "comp_ratio", "locality",
                "comp_spread")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
    comp_spread: float = 0.15

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise WorkloadError(
                f"tenant name must be a non-empty string, got {self.name!r}")
        for key in _INT_FIELDS:
            value = getattr(self, key)
            if not _is_int(value):
                raise WorkloadError(
                    f"tenant {self.name!r}: {key} must be an int, "
                    f"got {value!r}")
        for key in _REAL_FIELDS:
            value = getattr(self, key)
            if isinstance(value, bool) \
                    or not isinstance(value, numbers.Real):
                raise WorkloadError(
                    f"tenant {self.name!r}: {key} must be a number, "
                    f"got {value!r}")
        if self.weight <= 0:
            raise WorkloadError(
                f"tenant {self.name!r}: weight must be > 0, "
                f"got {self.weight}")


@dataclass(frozen=True)
class TenantMix:
    """A set of tenants plus the mix-level scheduling seed."""

    tenants: tuple[TenantSpec, ...]
    seed: int

    def __post_init__(self) -> None:
        if not _is_int(self.seed):
            raise WorkloadError(
                f"tenant-mix seed must be an int, got {self.seed!r}")
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

    @classmethod
    def from_dict(cls, payload: dict) -> "TenantMix":
        """Build a mix from ``{"seed", "tenants"}``, each tenant a
        mapping of :class:`TenantSpec` fields.

        A spec may say ``"open_loop": false`` and give a tenant
        ``"clients": 1`` (the benchmark's input does): that is what
        every mix is.  Any other value of either is refused.
        """
        try:
            if payload.get("open_loop", False) is not False:
                raise WorkloadError(
                    f"tenant mixes are closed-loop: open_loop must be "
                    f"false, got {payload['open_loop']!r}")
            tenants = tuple(_tenant(entry) for entry in payload["tenants"])
            return cls(tenants=tenants, seed=payload["seed"])
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


def _tenant(entry: dict) -> TenantSpec:
    """One tenant of a spec file; a ``"clients"`` key must say 1."""
    if not isinstance(entry, dict):
        raise TypeError(f"a tenant must be an object, got {entry!r}")
    fields = dict(entry)
    clients = fields.pop("clients", 1)
    if not _is_int(clients) or clients != 1:
        raise WorkloadError(
            f"tenant {fields.get('name')!r}: clients must be 1 (weight "
            f"sets a tenant's share), got {clients!r}")
    return TenantSpec(**fields)


class TenantMixStream:
    """Interleaved multi-tenant chunk stream over per-tenant vdbench."""

    def __init__(self, mix: TenantMix, payload: bool = False):
        self.mix = mix
        #: Scheduling-only parent RNG (never handed to tenants).
        self._sched_rng = random.Random(mix.seed)
        self.streams: list[VdbenchStream] = []
        for index, spec in enumerate(mix.tenants):
            self.streams.append(VdbenchStream(
                dedup_ratio=spec.dedup_ratio,
                comp_ratio=spec.comp_ratio,
                seed=spec.seed,
                payload=payload,
                comp_spread=spec.comp_spread,
                locality=spec.locality,
                working_set=spec.working_set,
                offset_base=index * TENANT_ADDRESS_STRIDE))
        #: Cumulative weights for bisect picks.
        self._cumulative: list[float] = []
        total = 0.0
        for spec in mix.tenants:
            total += spec.weight
            self._cumulative.append(total)
        self._total_weight = total

    # -- scheduling ---------------------------------------------------------

    def _pick_tenant(self) -> int:
        """Index of the tenant emitting the next chunk.

        The one-tenant shortcut consumes no parent draws: a degenerate
        mix's chunk sequence is the plain single-stream sequence.
        """
        if len(self.streams) == 1:
            return 0
        point = self._sched_rng.random() * self._total_weight
        return bisect_right(self._cumulative, point,
                            hi=len(self._cumulative) - 1)

    # -- emission -----------------------------------------------------------

    def chunks(self, n: int) -> Iterator[Chunk]:
        """Emit ``n`` interleaved chunks, one functional window at a time.

        A window's scheduling picks are drawn first, in parent-RNG
        order; each tenant's picks then collapse into one
        ``next_batch`` call, so every tenant stream walks its own RNG
        in its per-chunk order whatever the window size.
        """
        for take in window_sizes(n):
            picks = [self._pick_tenant() for _ in range(take)]
            per_tenant: dict[int, int] = {}
            for tenant in picks:
                per_tenant[tenant] = per_tenant.get(tenant, 0) + 1
            drawn: dict[int, Iterator[Chunk]] = {
                tenant: iter(self.streams[tenant].next_batch(count))
                for tenant, count in per_tenant.items()}
            for tenant in picks:
                chunk = next(drawn[tenant])
                chunk.tenant = tenant
                yield chunk

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
