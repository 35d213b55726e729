"""Tests for the dedup engine's functional state machine."""

import hashlib

import pytest

from repro.dedup.engine import DedupEngine
from repro.dedup.gpu_index import GpuBinIndex
from repro.errors import ConfigError, DedupError
from repro.types import Chunk


def chunk_of(content: bytes, offset: int = 0, size: int = 4096) -> Chunk:
    payload = (content * (size // len(content) + 1))[:size]
    c = Chunk(offset=offset, size=size, payload=payload)
    c.fingerprint = hashlib.sha1(payload).digest()
    return c


def synthetic_chunk(uid: int, offset: int) -> Chunk:
    return Chunk(offset=offset, size=4096,
                 fingerprint=hashlib.sha1(str(uid).encode()).digest(),
                 comp_ratio=2.0)


class TestIndexingPaths:
    def test_fresh_chunk_is_unique(self):
        engine = DedupEngine()
        outcome = engine.cpu_index(chunk_of(b"aaa"))
        assert not outcome.duplicate
        assert outcome.path == "unique"

    def test_buffer_hit_after_commit(self):
        engine = DedupEngine()
        first = chunk_of(b"aaa", offset=0)
        engine.cpu_index(first)
        first.compressed_size = 2048
        engine.commit_unique(first)
        twin = chunk_of(b"aaa", offset=4096)
        outcome = engine.cpu_index(twin)
        assert outcome.duplicate and outcome.path == "buffer"
        assert engine.counters["buffer_hits"] == 1

    def test_tree_hit_after_flush(self):
        # Tiny buffer: one insert fills the bin and flushes to the tree.
        engine = DedupEngine(bin_buffer_capacity=1)
        first = chunk_of(b"aaa", offset=0)
        engine.cpu_index(first)
        first.compressed_size = 2048
        _cycles, batch, physical_id, _ = engine.commit_unique(first)
        assert batch is not None
        twin = chunk_of(b"aaa", offset=4096)
        outcome = engine.cpu_index(twin)
        assert outcome.duplicate and outcome.path == "tree"
        assert outcome.physical_id == physical_id

    def test_partial_index_skips_tree(self):
        engine = DedupEngine(bin_buffer_capacity=1)
        first = chunk_of(b"aaa", offset=0)
        engine.cpu_index(first)
        first.compressed_size = 2048
        engine.commit_unique(first)  # flushed to tree
        twin = chunk_of(b"aaa", offset=4096)
        # Partial indexing only sees the (now empty) buffer.
        outcome = engine.cpu_index_partial(twin)
        assert not outcome.duplicate

    def test_partial_cheaper_than_full(self):
        engine = DedupEngine()
        full = engine.cpu_index(chunk_of(b"x", offset=0))
        partial = engine.cpu_index_partial(chunk_of(b"y", offset=4096))
        assert partial.cpu_cycles < full.cpu_cycles


class TestCommits:
    def test_commit_unique_then_duplicate_shares_space(self):
        engine = DedupEngine()
        first = chunk_of(b"data", offset=0)
        engine.cpu_index(first)
        first.compressed_size = 1000
        engine.commit_unique(first)
        twin = chunk_of(b"data", offset=4096)
        outcome = engine.cpu_index(twin)
        assert outcome.duplicate
        engine.commit_duplicate(twin, outcome.physical_id)
        assert engine.metadata.logical_bytes == 8192
        assert engine.metadata.physical_bytes == 1000
        assert twin.compressed_size == 1000  # inherited from the record

    def test_commit_duplicate_without_record_raises(self):
        engine = DedupEngine()
        orphan = chunk_of(b"zzz")
        for physical_id in (None, 0):
            with pytest.raises(DedupError):
                engine.commit_duplicate(orphan, physical_id)

    def test_race_downgrade(self):
        engine = DedupEngine()
        a = chunk_of(b"same", offset=0)
        b = chunk_of(b"same", offset=4096)
        engine.cpu_index(a)
        engine.cpu_index(b)  # both saw "unique"
        a.compressed_size = 1500
        b.compressed_size = 1500
        _c1, _b1, first_id, first_unique = engine.commit_unique(a)
        _c2, _b2, second_id, second_unique = engine.commit_unique(b)
        assert first_unique and not second_unique
        assert second_id == first_id
        assert engine.metadata.resolve(4096) == engine.metadata.resolve(0)
        assert engine.counters["race_duplicates"] == 1
        assert engine.metadata.unique_chunks == 1

    def test_flush_populates_tree_and_gpu(self):
        gpu_index = GpuBinIndex(prefix_bytes=2)
        engine = DedupEngine(bin_buffer_capacity=1, gpu_index=gpu_index)
        chunk = chunk_of(b"flushme")
        engine.cpu_index(chunk)
        chunk.compressed_size = 2000
        _cycles, batch, _, _ = engine.commit_unique(chunk)
        assert batch is not None
        assert batch.chunk_count == 1
        assert batch.payload_bytes == 2000
        assert len(engine.bin_table) == 1
        assert gpu_index.lookup_host([chunk.fingerprint]) == [True]

    def test_gpu_index_on_another_prefix_width_rejected(self):
        # A flushed bin installs into the GPU bin of the same id, so
        # both must be keyed on the same prefix width.
        with pytest.raises(ConfigError, match="prefix_bytes"):
            DedupEngine(prefix_bytes=2,
                        gpu_index=GpuBinIndex(prefix_bytes=1))

    def test_drain_flushes_everything(self):
        engine = DedupEngine(bin_buffer_capacity=100)
        for i in range(10):
            chunk = synthetic_chunk(i, offset=i * 4096)
            engine.cpu_index(chunk)
            chunk.compressed_size = 2048
            engine.commit_unique(chunk)
        assert len(engine.bin_buffer) == 10
        batches = engine.drain()
        assert sum(b.chunk_count for b in batches) == 10
        assert len(engine.bin_table) == 10
        assert len(engine.bin_buffer) == 0

    def test_dedup_ratio_reporting(self):
        engine = DedupEngine()
        for offset, content in enumerate([b"a", b"b", b"a", b"a"]):
            chunk = chunk_of(content, offset=offset * 4096)
            outcome = engine.cpu_index(chunk)
            if outcome.duplicate:
                engine.commit_duplicate(chunk, outcome.physical_id)
            else:
                chunk.compressed_size = 4096
                engine.commit_unique(chunk)
        assert engine.metadata.dedup_ratio() == pytest.approx(2.0)

    def test_ingest_cycles_scale_with_chunk_size(self):
        engine = DedupEngine()
        small = Chunk(offset=0, size=1024, comp_ratio=1.0,
                      fingerprint=bytes(20))
        large = Chunk(offset=0, size=8192, comp_ratio=1.0,
                      fingerprint=bytes(20))
        assert engine.ingest_cycles(large) > engine.ingest_cycles(small)

    def test_descriptor_mode_stream(self):
        """Synthetic fingerprints drive the same machinery as payloads."""
        engine = DedupEngine()
        dup_hits = 0
        for offset, uid in enumerate([1, 2, 3, 1, 2, 1]):
            chunk = synthetic_chunk(uid, offset=offset * 4096)
            outcome = engine.cpu_index(chunk)
            if outcome.duplicate:
                engine.commit_duplicate(chunk, outcome.physical_id)
                dup_hits += 1
            else:
                chunk.compressed_size = 2048
                engine.commit_unique(chunk)
        assert dup_hits == 3
        assert engine.metadata.unique_chunks == 3


class TestIdValuedIndex:
    """The bins carry the physical id; a swept id is a miss."""

    def _store(self, engine, chunk):
        chunk.compressed_size = 1000
        return engine.commit_unique(chunk)[2]

    def test_physical_id_zero_is_a_hit(self):
        engine = DedupEngine()
        assert self._store(engine, chunk_of(b"first", offset=0)) == 0
        outcome = engine.cpu_index(chunk_of(b"first", offset=4096))
        assert outcome.duplicate and outcome.physical_id == 0

    def test_flush_reads_sizes_from_the_chunk_table(self):
        engine = DedupEngine(bin_buffer_capacity=100)
        for i, size in enumerate((700, 900, 1100)):
            chunk = synthetic_chunk(i, offset=i * 4096)
            chunk.compressed_size = size
            engine.commit_unique(chunk)
        assert sum(batch.payload_bytes for batch in engine.drain()) \
            == 700 + 900 + 1100

    def test_gpu_hit_maps_onto_the_trees_copy(self):
        engine = DedupEngine(bin_buffer_capacity=1,
                             gpu_index=GpuBinIndex(prefix_bytes=2))
        physical_id = self._store(engine, chunk_of(b"gpu", offset=0))
        twin = chunk_of(b"gpu", offset=4096)
        engine.note_gpu_hit(twin)
        assert engine.metadata.resolve(4096).physical_id == physical_id
        assert engine.counters["gpu_hits"] == 1

    def test_a_zombie_still_hits_and_revives(self):
        engine = DedupEngine()
        self._store(engine, chunk_of(b"old", offset=0))
        self._store(engine, chunk_of(b"new", offset=0))  # overwrite
        assert engine.metadata.zombie_chunks == 1
        twin = chunk_of(b"old", offset=4096)
        outcome = engine.cpu_index(twin)
        assert outcome.duplicate
        engine.commit_duplicate(twin, outcome.physical_id)
        assert engine.metadata.zombie_chunks == 0
        engine.metadata.verify_invariants()

    def test_sweep_drops_swept_ids_from_the_bin_buffer(self):
        engine = DedupEngine()
        self._store(engine, chunk_of(b"old", offset=0))
        self._store(engine, chunk_of(b"new", offset=0))  # overwrite
        assert engine.sweep() == 1000
        assert len(engine.bin_buffer) == 1
        again = chunk_of(b"old", offset=4096)
        assert not engine.cpu_index(again).duplicate
        again.compressed_size = 1000
        _c, _b, physical_id, unique = engine.commit_unique(again)
        assert unique and physical_id == 2   # ids are never reused
        assert engine.counters["race_duplicates"] == 0
        engine.metadata.verify_invariants()

    def test_a_stale_tree_entry_misses_until_the_content_returns(self):
        # Capacity 1: every unique flushes straight into the tree.
        engine = DedupEngine(bin_buffer_capacity=1)
        self._store(engine, chunk_of(b"old", offset=0))
        self._store(engine, chunk_of(b"new", offset=0))  # overwrite
        engine.sweep()
        again = chunk_of(b"old", offset=4096)
        outcome = engine.cpu_index(again)
        assert not outcome.duplicate and outcome.path == "unique"
        physical_id = self._store(engine, again)
        assert engine.counters["race_duplicates"] == 0
        # The new flush updated the tree entry in place.
        assert len(engine.bin_table) == 2
        outcome = engine.cpu_index(chunk_of(b"old", offset=8192))
        assert outcome.path == "tree" and outcome.physical_id == physical_id
