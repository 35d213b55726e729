"""The admission controller the pipeline drives (one facade).

Everything the core pipeline needs from the tenancy subsystem goes
through :class:`TenancyController`: an inline verdict per chunk
(:meth:`~TenancyController.admit`), the store of a non-duplicate chunk
(:meth:`~TenancyController.commit`), compaction batch hand-off, and
per-tenant accounting.  Together they are the *index* and *commit*
stages of the pipeline's one chunk worker under a tenancy policy — a
variant of those two stages, not a second pipeline.  Estimator
sketches, cache partitions and residency quotas stay private to this
package — REP901 patrols that boundary the same way REP801 guards
shard state.

The verdict contract:

* **hit** — the fingerprint was resident in the bounded inline cache;
  the chunk commits as a duplicate against the canonical record.
* **miss** — not resident; the chunk stores (canonically if its
  fingerprint is new, else as a shadow copy deferred to compaction).
* **skip** — the tenant's locality estimate is below threshold
  ("prioritized" only): the chunk bypasses inline dedup entirely,
  stores raw under a shadow fingerprint, and compaction recovers any
  duplicate later.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple, Optional

from repro.errors import ConfigError
from repro.storage.metadata import MetadataStore
from repro.tenancy.accounting import TenantAccounting
from repro.tenancy.admission import PrioritizedCache, SharedLruCache
from repro.tenancy.compaction import CompactionEntry, CompactionQueue
from repro.tenancy.locality import LocalityEstimator
from repro.types import Chunk

__all__ = ["ADMIT_HIT", "ADMIT_MISS", "ADMIT_SKIP", "Admission",
           "COMPACTION_BATCH", "LOCALITY_WINDOW", "MIN_OBSERVE",
           "REBALANCE_PERIOD", "SKIP_THRESHOLD", "TenancyController"]

# The admission plane's tuning, fixed: no caller ever varied these, so
# they are constants of the design rather than run configuration.
#: Sliding-sketch window of the per-tenant locality estimator.
LOCALITY_WINDOW = 256
#: Below this estimated duplicate locality a stream's chunks skip
#: inline dedup entirely ("prioritized" only).
SKIP_THRESHOLD = 0.05
#: Chunks a tenant must contribute before its estimate can trigger
#: inline skips (cold-start guard).
MIN_OBSERVE = 64
#: Admissions between residency-share rebalances ("prioritized").
REBALANCE_PERIOD = 256
#: Deferred chunks per out-of-line compaction epoch.
COMPACTION_BATCH = 256


class Admission(NamedTuple):
    """One inline verdict, as the chunk worker reads it."""

    name: str
    #: The chunk takes the inline path (hash + cache probe); False for
    #: a skip, which does neither.
    inline: bool
    #: The bounded cache held the fingerprint.
    hit: bool


#: Inline admission verdicts.
ADMIT_HIT = Admission("hit", inline=True, hit=True)
ADMIT_MISS = Admission("miss", inline=True, hit=False)
ADMIT_SKIP = Admission("skip", inline=False, hit=False)


class TenancyController:
    """Locality-prioritized inline admission plus compaction hand-off."""

    __slots__ = ("policy", "accounting", "_cache", "_estimators",
                 "_compaction", "_admissions")

    def __init__(self, policy: str, cache_entries: int):
        if policy not in ("shared_lru", "prioritized"):
            raise ConfigError(f"unknown tenancy policy {policy!r}")
        self.policy = policy
        self.accounting = TenantAccounting()
        if policy == "prioritized":
            self._cache = PrioritizedCache(cache_entries)
        else:
            self._cache = SharedLruCache(cache_entries)
        self._estimators: dict[int, LocalityEstimator] = {}
        self._compaction = CompactionQueue(COMPACTION_BATCH)
        self._admissions = 0

    # -- inline admission ----------------------------------------------------

    def _estimator(self, tenant: int) -> LocalityEstimator:
        estimator = self._estimators.get(tenant)
        if estimator is None:
            estimator = LocalityEstimator(LOCALITY_WINDOW)
            self._estimators[tenant] = estimator
        return estimator

    def admit(self, tenant: int, fingerprint: bytes) -> Admission:
        """The inline verdict for one chunk of ``tenant``."""
        self.accounting.note_chunk(tenant)
        estimator = self._estimator(tenant)
        estimator.observe(fingerprint)
        prioritized = self.policy == "prioritized"
        if prioritized:
            self._admissions += 1
            if self._admissions % REBALANCE_PERIOD == 0:
                self._rebalance()
            if estimator.observed >= MIN_OBSERVE \
                    and estimator.estimate < SKIP_THRESHOLD:
                self.accounting.note_skip(tenant)
                return ADMIT_SKIP
        if self._cache.probe(tenant, fingerprint):
            self.accounting.note_hit(tenant)
            return ADMIT_HIT
        # Insert at admission, not at commit: the pipeline keeps a whole
        # window of chunks in flight, and a duplicate that arrives
        # within that window must still find its twin's fingerprint
        # resident.  The pipeline re-checks the metadata store before
        # committing a hit as an inline duplicate, so an entry whose
        # canonical record is still in flight (or is a
        # compaction-promoted shadow) downgrades to a shadow store
        # instead of a dangling dedup reference.
        self._cache.insert(tenant, fingerprint)
        return ADMIT_MISS

    def _rebalance(self) -> None:
        """Residency shares proportional to the locality estimates."""
        estimators = self._estimators
        total = 0.0
        for estimator in estimators.values():
            total += estimator.estimate
        if total <= 0.0:
            share = 1.0 / len(estimators)
            shares = {tenant: share for tenant in estimators}
        else:
            shares = {tenant: estimator.estimate / total
                      for tenant, estimator in estimators.items()}
        self._cache.set_shares(shares)

    # -- commit -------------------------------------------------------------

    def commit(self, seq: int, tenant: int, chunk: Chunk,
               blob: Optional[bytes], verdict: Admission,
               metadata: MetadataStore) -> str:
        """Store a chunk that did not dedup inline; returns its trace label.

        A miss stores under its real fingerprint only when no record
        (stored or compaction-promoted) already owns that fingerprint.
        Anything else — an inline skip, a hit whose canonical record
        was still in flight, or a *hidden duplicate* the bounded cache
        lost track of — stores raw under a shadow fingerprint derived
        from the admission ``seq`` and is deferred: compaction remaps
        it and sweeps the blob later.
        """
        fingerprint = chunk.fingerprint
        if chunk.compressed_size is None:
            chunk.compressed_size = chunk.size
        canonical = (verdict is ADMIT_MISS
                     and metadata.lookup(fingerprint) is None
                     and self._compaction.canonical_shadow(fingerprint)
                     is None)
        stored_as = fingerprint if canonical else hashlib.sha1(
            f"tenancy-shadow:{seq}".encode()).digest()
        metadata.store_unique(stored_as, chunk.size,
                              chunk.compressed_size, blob=blob)
        metadata.map_logical(chunk.offset, stored_as, chunk.size)
        if not canonical:
            self._compaction.defer(CompactionEntry(
                seq=seq, tenant=tenant, offset=chunk.offset,
                size=chunk.size, fingerprint=fingerprint,
                shadow_fp=stored_as))
        self.accounting.note_stored(tenant)
        return "tenant_unique" if canonical else "tenant_shadow"

    def record_latency(self, tenant: int, seconds: float) -> None:
        """Fold one chunk's inline latency into the tenant's histogram."""
        self.accounting.record_latency(tenant, seconds)

    # -- compaction hand-off -------------------------------------------------

    def take_compaction_batch(self):
        """A full epoch batch when one is ready, else None."""
        return self._compaction.take_batch()

    def drain_compaction(self):
        """End-of-run epochs over every remaining deferred chunk."""
        return self._compaction.drain()

    def compaction_cycles(self, entries, costs) -> float:
        """CPU cycles one epoch charges through ``SimCpu``."""
        return self._compaction.cycles_for(entries, costs)

    def apply_compaction(self, entries,
                         metadata: MetadataStore) -> int:
        """Run one epoch; returns the duplicates recovered."""
        tenants = self._compaction.apply(entries, metadata)
        for tenant in tenants:
            self.accounting.note_recovered(tenant)
        return len(tenants)

    # -- readouts ------------------------------------------------------------

    def estimates(self) -> dict[int, float]:
        """Per-tenant locality estimates (first-seen order)."""
        return {tenant: estimator.estimate
                for tenant, estimator in self._estimators.items()}

    def compaction_counters(self) -> dict[str, int]:
        """Lifetime compaction counters."""
        return self._compaction.counters()

    def counters(self) -> dict[str, int]:
        """Aggregate integer counters for the obs metrics registry."""
        chunks = 0
        hits = 0
        stored = 0
        skips = 0
        recovered = 0
        for tenant in self.accounting.tenants():
            counters = self.accounting.counters(tenant)
            chunks += counters.chunks
            hits += counters.inline_hits
            stored += counters.stored
            skips += counters.skips
            recovered += counters.recovered
        out = {"chunks": chunks, "inline_hits": hits,
               "stored": stored, "skips": skips,
               "recovered": recovered}
        for key, value in self._compaction.counters().items():
            out[f"compaction_{key}"] = value
        return out
