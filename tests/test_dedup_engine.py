"""Tests for the dedup engine's functional state machine."""

import hashlib

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

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

    def test_a_gpu_hit_on_a_swept_copy_is_a_miss(self):
        """GPU bins hold no ids and a sweep leaves them alone: a hit on
        a fingerprint whose copy was swept is stale.  The engine maps
        nothing and counts nothing; the CPU index path then stores the
        chunk again."""
        gpu = GpuBinIndex(prefix_bytes=1)
        engine = DedupEngine(prefix_bytes=1, gpu_index=gpu)
        swept_id = self._store(engine, chunk_of(b"gone", offset=0))
        engine.drain()
        engine.metadata.unmap_logical(0)
        engine.sweep()
        twin = chunk_of(b"gone", offset=4096)
        assert gpu.lookup_host([twin.fingerprint]) == [True]
        assert engine.note_gpu_hit(twin) is None
        assert engine.counters["gpu_hits"] == 0
        assert engine.metadata.mapped_offsets() == []
        outcome = engine.cpu_index(twin)
        assert not outcome.duplicate
        physical_id = self._store(engine, twin)
        assert physical_id != swept_id
        assert engine.metadata.resolve(4096).physical_id == physical_id

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


# -- the engine against a model ---------------------------------------------

#: Eight contents over two one-byte bins, so bins fill, flush and (with
#: two GPU slots a bin) evict within a few steps.
FINGERPRINTS = tuple(bytes([i % 2]) + hashlib.sha1(bytes([i])).digest()[1:]
                     for i in range(8))
#: Never stored: installed straight into the GPU bins to force evictions.
FILLERS = tuple(bytes([i % 2]) + bytes([0xEE, i]) * 9 + b"\xee"
                for i in range(4))
SLOTS = 6  # logical offsets, so overwrites and zombies are common


class DedupEngineMachine(RuleBasedStateMachine):
    """One functional ``DedupEngine`` with GPU bins, against a model.

    The model is the id -> fingerprint map of every chunk stored, the
    logical map, the swept ids, and ``indexed``: for each fingerprint
    stored since the last restart and not swept since, the id the bins
    must name.  The paper keeps the index in memory only, so a restart
    is the one miss it allows.
    """

    def __init__(self):
        super().__init__()
        self.gpu = GpuBinIndex(prefix_bytes=1, bin_capacity=2)
        self.engine = DedupEngine(prefix_bytes=1, bin_buffer_capacity=2,
                                  bin_buffer_total=3, gpu_index=self.gpu)
        self.fingerprint_of: dict[int, bytes] = {}
        self.indexed: dict[bytes, int] = {}
        self.logical: dict[int, int] = {}
        self.swept: set[int] = set()

    def _index(self, chunk: Chunk, via_gpu: bool):
        """The pipeline's index step: ``(id found, mapped already)``."""
        engine, fingerprint = self.engine, chunk.fingerprint
        definitive = False
        if via_gpu:
            # GPU bins hold no ids: a hit maps onto the copy the host
            # tree names.  After a sweep that copy can be gone; the
            # engine answers such a stale hit with a miss (None), and
            # the chunk takes the CPU path.
            tree_id = engine.bin_table.lookup(fingerprint)
            if self.gpu.lookup_host([fingerprint])[0]:
                gpu_hits = engine.counters["gpu_hits"]
                if engine.note_gpu_hit(chunk) is not None:
                    assert engine.metadata.resolve(chunk.offset) \
                        .physical_id == tree_id
                    return tree_id, True
                assert tree_id in self.swept
                assert engine.counters["gpu_hits"] == gpu_hits
            definitive = self.gpu.evictions == 0
        outcome = engine.cpu_index_partial(chunk) if definitive \
            else engine.cpu_index(chunk)
        return (outcome.physical_id if outcome.duplicate else None), False

    @rule(content=st.integers(0, len(FINGERPRINTS) - 1),
          slot=st.integers(0, SLOTS - 1), as_unique=st.booleans(),
          via_gpu=st.booleans())
    def write(self, content, slot, as_unique, via_gpu):
        """Index a chunk, then commit it as a duplicate of what the
        index found or as a unique (a lost race when it found one)."""
        fingerprint = FINGERPRINTS[content]
        chunk = Chunk(offset=slot * 4096, size=4096, fingerprint=fingerprint)
        found, mapped = self._index(chunk, via_gpu)
        assert found == self.indexed.get(fingerprint)
        if mapped:
            physical_id = found
        elif found is not None and not as_unique:
            self.engine.commit_duplicate(chunk, found)
            physical_id = found
        else:
            chunk.compressed_size = 1000 + content
            _cycles, _batch, physical_id, unique = \
                self.engine.commit_unique(chunk)
            assert unique == (found is None)
            if unique:
                assert physical_id not in self.fingerprint_of
                self.fingerprint_of[physical_id] = fingerprint
                self.indexed[fingerprint] = physical_id
            else:
                assert physical_id == found
        self.logical[chunk.offset] = physical_id

    @rule()
    def flush(self):
        self.engine.drain()

    @rule(slot=st.integers(0, SLOTS - 1))
    def unmap(self, slot):
        if slot * 4096 in self.logical:
            self.engine.metadata.unmap_logical(slot * 4096)
            del self.logical[slot * 4096]

    @rule()
    def sweep(self):
        self.engine.sweep()
        referenced = set(self.logical.values())
        self.swept.update(set(self.fingerprint_of) - referenced)
        self.indexed = {fingerprint: physical_id for fingerprint, physical_id
                        in self.indexed.items()
                        if physical_id not in self.swept}

    @rule()
    def restart(self):
        self.engine.restart()
        self.indexed.clear()

    @rule(filler=st.sampled_from(FILLERS))
    def evict(self, filler):
        """Fill a GPU bin past its two slots: random replacement."""
        self.gpu.insert(filler)

    @invariant()
    def bins_name_exactly_the_indexed_ids(self):
        """No false positive, ever, a swept id never hits, and a live
        fingerprint stored since the last restart always hits."""
        for fingerprint in FINGERPRINTS:
            outcome = self.engine.cpu_index(
                Chunk(offset=0, size=4096, fingerprint=fingerprint))
            want = self.indexed.get(fingerprint)
            assert outcome.duplicate == (want is not None), fingerprint
            if want is not None:
                assert outcome.physical_id == want
                assert self.fingerprint_of[want] == fingerprint
                assert want not in self.swept

    @invariant()
    def an_eviction_free_gpu_index_mirrors_the_tree(self):
        """While the GPU bins never evicted, a GPU miss is definitive:
        every indexed fingerprint is staged or in the GPU bins."""
        if self.gpu.evictions == 0:
            for fingerprint in self.indexed:
                assert self.engine.bin_buffer.lookup(fingerprint) \
                    is not None or self.gpu.lookup_host([fingerprint])[0]

    @invariant()
    def chunk_table_matches_the_model(self):
        metadata = self.engine.metadata
        metadata.verify_invariants()
        assert metadata.unique_chunks == len(set(self.logical.values()))
        held = [physical_id for physical_id in self.fingerprint_of
                if metadata.lookup(physical_id) is not None]
        assert len(held) == len(self.fingerprint_of) - len(self.swept)


TestDedupEngineAgainstModel = DedupEngineMachine.TestCase
TestDedupEngineAgainstModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
