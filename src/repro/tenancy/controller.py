"""The admission controller the pipeline drives (one facade).

Everything the core pipeline needs from the tenancy subsystem goes
through :class:`TenancyController`: an inline verdict per chunk
(:meth:`~TenancyController.admit`), the store of a non-duplicate chunk
(:meth:`~TenancyController.commit`), the compaction epoch
(:meth:`~TenancyController.apply_compaction`), and per-tenant
accounting.  Together they are the *index* and *commit* stages of the
pipeline's one chunk worker under a tenancy policy — a variant of those
two stages, not a second pipeline.  Estimator sketches, cache
partitions and residency quotas stay private to this package.

The verdict contract:

* **hit** — the fingerprint was resident in the bounded inline cache;
  the chunk commits as a duplicate against the stored copy.
* **miss** — not resident; the chunk stores (canonically if no stored
  copy of its fingerprint is live, else as a shadow copy deferred to
  compaction).
* **skip** — the tenant's locality estimate is below threshold
  ("prioritized" only): the chunk bypasses inline dedup entirely,
  stores raw as a shadow copy, and compaction recovers any duplicate
  later.

The controller keeps the one fingerprint index: fingerprint → id of its
stored copy, a canonical inline store or a shadow compaction promoted.
At most one of those is ever live for a fingerprint, so the last id
entered is the one to probe, and an id the chunk table no longer holds
is a miss (:meth:`~TenancyController.stored_id`).
"""

from __future__ import annotations

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
                 "compaction", "_admissions", "_stored")

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
        self.compaction = CompactionQueue(COMPACTION_BATCH)
        self._admissions = 0
        #: fingerprint -> physical id of its stored copy: a canonical
        #: inline store, or a shadow compaction promoted.
        self._stored: dict[bytes, int] = {}

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
        # resident.  The pipeline re-checks :meth:`stored_id` before
        # committing a hit as an inline duplicate, so an entry whose
        # stored copy is still in flight downgrades to a shadow store
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

    def stored_id(self, fingerprint: bytes,
                  metadata: MetadataStore) -> Optional[int]:
        """Physical id of ``fingerprint``'s live stored copy, if any
        (ids are never reused: a swept id is a miss, never another
        chunk)."""
        physical_id = self._stored.get(fingerprint)
        return None if metadata.lookup(physical_id) is None else physical_id

    def commit(self, tenant: int, chunk: Chunk, blob: Optional[bytes],
               verdict: Admission, metadata: MetadataStore) -> str:
        """Store a chunk that did not dedup inline; returns its trace label.

        A miss stores canonically only when no stored copy of its
        fingerprint is live.  Anything else — an inline skip, a hit
        whose stored copy was still in flight, or a *hidden duplicate*
        the bounded cache lost track of — stores raw as a shadow copy
        and is deferred: compaction remaps it and sweeps the blob later.
        """
        fingerprint = chunk.fingerprint
        if chunk.compressed_size is None:
            chunk.compressed_size = chunk.size
        canonical = (verdict is ADMIT_MISS
                     and self.stored_id(fingerprint, metadata) is None)
        physical_id = metadata.store_unique(chunk.size,
                                            chunk.compressed_size, blob=blob)
        metadata.map_logical(chunk.offset, physical_id)
        if canonical:
            self._stored[fingerprint] = physical_id
        else:
            self.compaction.defer(CompactionEntry(
                tenant=tenant, offset=chunk.offset, size=chunk.size,
                fingerprint=fingerprint, shadow_id=physical_id))
        self.accounting.note_stored(tenant)
        return "tenant_unique" if canonical else "tenant_shadow"

    # -- compaction hand-off -------------------------------------------------

    def apply_compaction(self, entries: list[CompactionEntry],
                         metadata: MetadataStore) -> None:
        """Run one epoch's functional work.

        Per entry: remap the logical offset onto the live stored copy of
        its real fingerprint and count the duplicate as recovered; a
        first occurrence promotes its own shadow to the stored copy.  An
        offset rewritten since its shadow was deferred holds other
        content now and is left alone.  The end-of-epoch sweep reclaims
        every dereferenced shadow blob.
        """
        stored = self._stored
        recovered = 0
        for entry in entries:
            if metadata.mapped_id(entry.offset) != entry.shadow_id:
                continue
            target = self.stored_id(entry.fingerprint, metadata)
            if target is None:
                stored[entry.fingerprint] = entry.shadow_id
                continue
            metadata.map_logical(entry.offset, target)
            self.accounting.note_recovered(entry.tenant)
            recovered += 1
        self.compaction.close_epoch(recovered, metadata.sweep_unreferenced())

    # -- readouts ------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Aggregate integer counters for the obs metrics registry."""
        out = dict.fromkeys(
            ("chunks", "inline_hits", "stored", "skips", "recovered"), 0)
        for tenant in self.accounting.tenants():
            counters = self.accounting.counters(tenant)
            for key in out:
                out[key] += getattr(counters, key)
        compaction = self.compaction.counters()
        # The deferred queue's length is a level, not a count: the
        # pipeline publishes it as a gauge.
        del compaction["pending"]
        for key, value in compaction.items():
            out[f"compaction_{key}"] = value
        return out
