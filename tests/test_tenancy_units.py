"""Unit contracts of the tenancy plane's building blocks (DESIGN.md §13).

``test_tenancy_equivalence.py`` pins what a whole tenant-mix run
produces; this file pins the pieces it is built from, one at a time:

* the two bounded inline fingerprint caches (shared LRU and
  per-tenant prioritized partitions) — hits, recency, quotas and which
  partition pays for an insert over capacity;
* per-tenant accounting — counters, aggregate rates, SLO summaries;
* the out-of-line compaction queue — batching, draining, and the
  remap-and-sweep epoch against a real ``MetadataStore``.
"""

import pytest

from repro.cpu.costs import DEFAULT_COSTS
from repro.errors import ConfigError
from repro.storage.metadata import MetadataStore
from repro.tenancy import (
    MIN_QUOTA,
    CompactionEntry,
    CompactionQueue,
    PrioritizedCache,
    SharedLruCache,
    TenantAccounting,
)


def fp(tag: str) -> bytes:
    """A distinct 20-byte fingerprint per tag."""
    return tag.encode().ljust(20, b"\0")


def fill(cache, tenant: int, tags: list[str]) -> None:
    for tag in tags:
        cache.insert(tenant, fp(tag))


def quota(cache, tenant: int) -> int:
    """A tenant's current residency quota (entries) in the cache."""
    return cache._quotas.get(tenant, MIN_QUOTA)


def resident(cache, tags: list[str]) -> list[str]:
    """The tags whose fingerprints a probe finds (probe refreshes)."""
    return [tag for tag in tags if cache.probe(0, fp(tag))]


@pytest.mark.parametrize("cache_cls", [SharedLruCache, PrioritizedCache])
def test_invalid_capacity_rejected(cache_cls):
    with pytest.raises(ConfigError):
        cache_cls(0)


class TestSharedLruCache:
    def test_miss_then_hit_after_insert(self):
        cache = SharedLruCache(4)
        assert not cache.probe(0, fp("a"))
        cache.insert(0, fp("a"))
        assert cache.probe(0, fp("a"))
        # One cache for every tenant: another tenant's probe hits too.
        assert cache.probe(7, fp("a"))

    def test_evicts_least_recently_used(self):
        cache = SharedLruCache(3)
        fill(cache, 0, ["a", "b", "c"])
        assert cache.probe(1, fp("a"))      # refresh: b is now the LRU
        cache.insert(1, fp("d"))
        assert len(cache) == 3
        assert not cache.probe(0, fp("b"))
        assert all(cache.probe(0, fp(t)) for t in ("a", "c", "d"))

    def test_reinsert_refreshes_without_growing(self):
        cache = SharedLruCache(2)
        fill(cache, 0, ["a", "b", "a"])
        assert len(cache) == 2
        cache.insert(0, fp("c"))            # b is the LRU after the reinsert
        assert resident(cache, ["a", "b", "c"]) == ["a", "c"]

    def test_shares_do_not_change_eviction(self):
        cache = SharedLruCache(2)
        cache.set_shares({0: 1.0, 1: 0.0})
        fill(cache, 0, ["a"])
        fill(cache, 1, ["b", "c"])
        assert resident(cache, ["a", "b", "c"]) == ["b", "c"]


class TestPrioritizedCache:
    def test_cross_tenant_probe_hits(self):
        cache = PrioritizedCache(8)
        cache.insert(0, fp("a"))
        assert cache.probe(1, fp("a"))
        assert not cache.probe(1, fp("b"))

    def test_default_quota_splits_capacity_by_partitions_seen(self):
        cache = PrioritizedCache(64)
        cache.insert(0, fp("a"))
        cache.insert(1, fp("b"))
        cache.insert(2, fp("c"))
        assert quota(cache, 0) == 64
        assert quota(cache, 1) == 32
        assert quota(cache, 2) == 21
        assert quota(cache, 9) == MIN_QUOTA   # never seen

    def test_set_shares_derives_quotas_with_a_floor(self):
        cache = PrioritizedCache(100)
        cache.set_shares({0: 0.75, 1: 0.0, 2: 0.25})
        assert quota(cache, 0) == 75
        assert quota(cache, 1) == MIN_QUOTA
        assert quota(cache, 2) == 25

    def test_shares_set_before_first_insert_are_kept(self):
        cache = PrioritizedCache(100)
        cache.set_shares({3: 0.5})
        cache.insert(3, fp("a"))
        assert quota(cache, 3) == 50

    def test_most_over_quota_partition_is_evicted(self):
        cache = PrioritizedCache(8)
        cache.set_shares({0: 0.75, 1: 0.25})    # quotas 6 and 4
        cold = [f"c{i}" for i in range(8)]
        fill(cache, 1, cold)
        fill(cache, 0, ["h0", "h1"])
        assert len(cache) == 8
        # Tenant 1 sat 4 over its quota: it paid for both inserts,
        # oldest entries first.
        assert resident(cache, cold) == cold[2:]
        assert resident(cache, ["h0", "h1"]) == ["h0", "h1"]

    def test_inserting_tenant_pays_when_nobody_is_over_quota(self):
        cache = PrioritizedCache(8)
        cache.set_shares({0: 1.0, 1: 1.0})      # quotas sum past capacity
        fill(cache, 0, ["a0", "a1", "a2", "a3"])
        fill(cache, 1, ["b0", "b1", "b2", "b3", "b4"])
        assert len(cache) == 8
        assert resident(cache, ["a0", "a1", "a2", "a3"]) == \
            ["a0", "a1", "a2", "a3"]
        assert resident(cache, ["b0", "b1", "b2", "b3", "b4"]) == \
            ["b1", "b2", "b3", "b4"]

    def test_overage_tie_evicts_the_first_created_partition(self):
        cache = PrioritizedCache(10)
        cache.set_shares({0: 0.0, 1: 0.0, 2: 0.5})   # quotas 4, 4, 5
        fill(cache, 0, ["a0", "a1", "a2", "a3", "a4"])
        fill(cache, 1, ["b0", "b1", "b2", "b3", "b4"])
        cache.insert(2, fp("n"))                 # tenants 0 and 1 both +1
        assert resident(cache, ["a0"]) == []
        assert resident(cache, ["b0", "n"]) == ["b0", "n"]


class TestTenantAccounting:
    def test_counters_and_hit_rate(self):
        accounting = TenantAccounting()
        for _ in range(4):
            accounting.note_chunk(5)
        accounting.note_hit(5)
        accounting.note_stored(5)
        accounting.note_skip(5)
        accounting.note_recovered(5)
        counters = accounting.counters(5)
        assert (counters.chunks, counters.inline_hits, counters.stored,
                counters.skips, counters.recovered) == (4, 1, 1, 1, 1)
        assert counters.inline_hit_rate == 0.25

    def test_aggregate_rates_weight_tenants_by_chunks(self):
        accounting = TenantAccounting()
        for _ in range(4):
            accounting.note_chunk(0)
            accounting.note_chunk(1)
            accounting.note_stored(1)
        for _ in range(3):
            accounting.note_hit(0)
        accounting.note_stored(0)
        assert accounting.aggregate_hit_rate() == 3 / 8
        assert accounting.aggregate_inline_dedup_ratio() == 8 / 5

    def test_empty_readouts_are_neutral(self):
        accounting = TenantAccounting()
        assert accounting.aggregate_hit_rate() == 0.0
        assert accounting.aggregate_inline_dedup_ratio() == 1.0
        assert accounting.latency_summary(3) == {
            "mean": 0.0, "p50": 0.0, "p99": 0.0, "p999": 0.0,
            "max": 0.0, "overflow": 0}
        assert accounting.counters(3).inline_hit_rate == 0.0

    def test_latency_is_kept_per_tenant(self):
        accounting = TenantAccounting()
        accounting.note_chunk(2)
        accounting.note_chunk(1)
        for _ in range(10):
            accounting.record_latency(2, 1e-3)
        assert accounting.tenants() == [2, 1]      # first-seen order
        summary = accounting.latency_summary(2)
        assert summary["mean"] == pytest.approx(1e-3)
        assert summary["p50"] == pytest.approx(1e-3, rel=0.05)
        assert accounting.latency_summary(1)["max"] == 0.0
        assert accounting.counters(1).chunks == 1


def entry(tag: str, shadow_id: int, offset: int,
          tenant: int = 0, size: int = 4096) -> CompactionEntry:
    return CompactionEntry(tenant=tenant, offset=offset, size=size,
                           fingerprint=fp(tag), shadow_id=shadow_id)


def store_at(metadata: MetadataStore, offset: int,
             compressed_size: int = 1000) -> int:
    physical_id = metadata.store_unique(4096, compressed_size)
    metadata.map_logical(offset, physical_id)
    return physical_id


class TestCompactionQueue:
    def test_invalid_batch_rejected(self):
        with pytest.raises(ConfigError):
            CompactionQueue(0)

    def test_take_batch_waits_for_a_full_batch(self):
        queue = CompactionQueue(2)
        first = entry("a", 0, 0)
        second = entry("b", 1, 4096)
        queue.defer(first)
        assert queue.take_batch() is None
        queue.defer(second)
        assert queue.take_batch() == [first, second]
        assert len(queue) == 0
        assert queue.take_batch() is None

    def test_drain_yields_every_remaining_entry_in_order(self):
        queue = CompactionQueue(2)
        entries = [entry(f"f{i}", i, i * 4096) for i in range(5)]
        for item in entries:
            queue.defer(item)
        batches = list(queue.drain())
        assert [len(b) for b in batches] == [2, 2, 1]
        assert [e for b in batches for e in b] == entries
        assert queue.counters()["pending"] == 0
        assert queue.counters()["deferred"] == 5

    def test_cycles_charge_hash_probe_and_update_per_entry(self):
        queue = CompactionQueue(4)
        entries = [entry("a", 0, 0, size=4096),
                   entry("b", 1, 4096, size=8192)]
        expected = sum(DEFAULT_COSTS.sha1_cycles(e.size)
                       + DEFAULT_COSTS.bin_buffer_probe
                       + DEFAULT_COSTS.metadata_update for e in entries)
        assert queue.cycles_for(entries) == expected
        assert queue.cycles_for([]) == 0.0

    def test_apply_remaps_onto_the_stored_copy_and_sweeps_the_shadow(self):
        metadata = MetadataStore()
        stored = store_at(metadata, 0)
        shadow = store_at(metadata, 4096, compressed_size=1500)
        queue = CompactionQueue(1)
        recovered = queue.apply(
            [entry("a", shadow, 4096, tenant=3)], metadata,
            {fp("a"): stored})
        assert recovered == [3]
        assert metadata.resolve(4096).physical_id == stored
        assert metadata.lookup(shadow) is None
        assert metadata.unique_chunks == 1
        metadata.verify_invariants()
        assert queue.counters() == {
            "deferred": 0, "recovered": 1, "epochs": 1,
            "reclaimed_bytes": 1500, "pending": 0}

    def test_first_unstored_occurrence_promotes_its_shadow(self):
        metadata = MetadataStore()
        s0 = store_at(metadata, 0)
        s1 = store_at(metadata, 4096)
        queue = CompactionQueue(2)
        recovered = queue.apply([entry("b", s0, 0, tenant=1),
                                 entry("b", s1, 4096,
                                       tenant=2)],
                                metadata, {})
        # The first copy keeps its blob as the canonical one; only the
        # second is a recovered duplicate.
        assert recovered == [2]
        assert queue.canonical_shadow(fp("b"), metadata) == s0
        assert metadata.resolve(4096).physical_id == s0
        assert metadata.lookup(s1) is None
        assert queue.reclaimed_bytes == 1000
        metadata.verify_invariants()

    def test_promoted_shadow_serves_later_epochs(self):
        metadata = MetadataStore()
        s0 = store_at(metadata, 0)
        queue = CompactionQueue(1)
        assert queue.apply([entry("b", s0, 0)],
                           metadata, {}) == []
        assert queue.canonical_shadow(fp("b"), metadata) == s0
        s2 = store_at(metadata, 8192)
        assert queue.apply([entry("b", s2, 8192, tenant=4)],
                           metadata, {}) == [4]
        assert metadata.resolve(8192).physical_id == s0
        assert queue.epochs == 2
        assert queue.canonical_shadow(fp("c"), metadata) is None
        metadata.verify_invariants()

    def test_a_swept_canonical_copy_is_a_miss(self):
        metadata = MetadataStore()
        s0 = store_at(metadata, 0)
        queue = CompactionQueue(1)
        queue.apply([entry("b", s0, 0)], metadata, {})
        metadata.unmap_logical(0)
        metadata.sweep_unreferenced()
        # Ids are never reused: the promoted id names nothing now, in
        # the queue's map and in a stored-copy map alike.
        assert queue.canonical_shadow(fp("b"), metadata) is None
        s1 = store_at(metadata, 4096)
        assert queue.apply([entry("b", s1, 4096)], metadata,
                           {fp("b"): s0}) == []
        assert queue.canonical_shadow(fp("b"), metadata) == s1
        metadata.verify_invariants()
