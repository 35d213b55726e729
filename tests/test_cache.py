"""Tests for the chunk cache and its read-pipeline integration."""

import pytest

from repro.core.cache import ChunkCache
from repro.core.readpath import ReadPipeline
from repro.errors import ConfigError
from repro.sim import Environment
from repro.storage import MetadataStore
from repro.workload.patterns import ZipfPattern


def populated_store(n_chunks=64, compressed_size=2048):
    store = MetadataStore()
    for i in range(n_chunks):
        store.map_logical(i * 4096, store.store_unique(4096, compressed_size))
    return store


class TestChunkCache:
    def test_miss_then_hit(self):
        cache = ChunkCache(16384)
        assert not cache.lookup(0)
        cache.fill(0, 4096)
        assert cache.lookup(0)
        assert cache.hit_rate() == 0.5

    def test_lru_eviction_order(self):
        cache = ChunkCache(3 * 4096)
        for offset in (0, 4096, 8192):
            cache.fill(offset, 4096)
        cache.lookup(0)            # 0 becomes most recent
        cache.fill(12288, 4096)    # evicts 4096 (the LRU)
        assert cache.lookup(0)
        assert not cache.lookup(4096)
        assert cache.evictions == 1

    def test_capacity_respected(self):
        cache = ChunkCache(2 * 4096)
        for offset in range(0, 10 * 4096, 4096):
            cache.fill(offset, 4096)
        assert cache.used_bytes <= 2 * 4096
        assert len(cache) == 2

    def test_oversized_entry_skipped(self):
        cache = ChunkCache(1024)
        cache.fill(0, 4096)
        assert len(cache) == 0

    def test_refill_same_offset_no_double_count(self):
        cache = ChunkCache(16384)
        cache.fill(0, 4096)
        cache.fill(0, 2048)
        assert cache.used_bytes == 2048
        assert len(cache) == 1

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            ChunkCache(0)


class TestCachedReadPipeline:
    def _run(self, offsets, cache=None, window=1):
        # window=1 serializes reads; with deep queues concurrent misses
        # on the same cold offset would all go to media (realistic, but
        # not what these unit tests measure).
        env = Environment()
        pipeline = ReadPipeline(env, populated_store(), cache=cache,
                                window=window)
        return pipeline.run(offsets)

    def test_repeat_reads_hit_cache(self):
        cache = ChunkCache(64 * 4096)
        report = self._run([0, 0, 0, 4096, 0], cache=cache)
        assert report.cache_hits == 3
        assert cache.hit_rate() == pytest.approx(3 / 5)

    def test_cache_hits_skip_media_and_decode(self):
        cache = ChunkCache(64 * 4096)
        offsets = [0] * 32
        cached = self._run(offsets, cache=cache)
        uncached = self._run(offsets, cache=None)
        assert cached.duration_s < uncached.duration_s / 3
        assert cached.decompressed == 1  # only the first miss decoded

    def test_zipf_workload_gets_high_hit_rate(self):
        cache = ChunkCache(8 * 4096)  # 12.5% of the working set
        pattern = ZipfPattern(64, skew=1.2, seed=4)
        offsets = [pattern.next_slot() * 4096 for _ in range(2000)]
        report = self._run(offsets, cache=cache)
        assert report.cache_hits / len(offsets) > 0.5

    def test_without_cache_no_hits_reported(self):
        report = self._run([0, 0, 0])
        assert report.cache_hits == 0
