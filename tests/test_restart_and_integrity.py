"""Tests for restart semantics (RAM-only index) and read integrity."""

import pytest

from repro.dedup.engine import DedupEngine
from repro.dedup.gpu_index import GpuBinIndex
from repro.dedup.hashing import fingerprint_chunk
from repro.errors import MetadataError
from repro.storage import ReducedVolume
from repro.types import Chunk
from repro.workload.datagen import BlockContentGenerator


def compressible(n: int, salt: int = 0) -> bytes:
    return BlockContentGenerator(2.0, seed=3).make_block(n, salt=salt)


class TestEngineRestart:
    def _commit(self, engine, content, offset):
        chunk = Chunk(offset=offset, size=4096,
                      payload=(content * 4096)[:4096])
        fingerprint_chunk(chunk)
        outcome = engine.cpu_index(chunk)
        if outcome.duplicate:
            engine.commit_duplicate(chunk, outcome.physical_id)
            return "dup"
        chunk.compressed_size = 2048
        engine.commit_unique(chunk)
        return "unique"

    def test_duplicates_missed_after_restart(self):
        engine = DedupEngine(gpu_index=GpuBinIndex())
        assert self._commit(engine, b"a", 0) == "unique"
        assert self._commit(engine, b"a", 4096) == "dup"
        engine.restart()
        # The same content is no longer found: stored again.
        assert self._commit(engine, b"a", 8192) == "unique"
        assert engine.metadata.unique_chunks == 2
        assert engine.counters["restarts"] == 1

    def test_restart_makes_content_unfindable_but_readable(self):
        engine = DedupEngine()
        self._commit(engine, b"a", 0)
        engine.restart()
        # The bins are the whole index: dropping them loses every entry,
        # while the chunk table still serves the offset.
        assert len(engine.bin_buffer) == len(engine.bin_table) == 0
        probe = Chunk(offset=4096, size=4096, payload=(b"a" * 4096))
        fingerprint_chunk(probe)
        assert not engine.cpu_index(probe).duplicate
        assert engine.metadata.resolve(0).size == 4096
        engine.metadata.verify_invariants()

    def test_restore_after_restart_stores_twice(self):
        engine = DedupEngine()
        self._commit(engine, b"a", 0)
        engine.restart()
        # Same content arrives again: it is stored as a new chunk.
        assert self._commit(engine, b"a", 4096) == "unique"
        metadata = engine.metadata
        assert metadata.unique_chunks == 2
        assert metadata.physical_bytes == 4096
        assert metadata.dedup_ratio() == pytest.approx(1.0)
        assert metadata.resolve(0) is not metadata.resolve(4096)
        metadata.verify_invariants()

    def test_restart_drains_staged_data(self):
        engine = DedupEngine(bin_buffer_capacity=100)
        self._commit(engine, b"a", 0)
        self._commit(engine, b"b", 4096)
        assert len(engine.bin_buffer) == 2
        batches = engine.restart()
        assert sum(b.chunk_count for b in batches) == 2
        assert len(engine.bin_buffer) == 0
        assert len(engine.bin_table) == 0  # fresh tree

    def test_gpu_index_cleared_on_restart(self):
        from repro.gpu import DeviceMemory
        memory = DeviceMemory(10**7)
        gpu_index = GpuBinIndex(bin_capacity=16, memory=memory)
        engine = DedupEngine(bin_buffer_capacity=1, gpu_index=gpu_index)
        self._commit(engine, b"a", 0)  # flushes straight to GPU
        assert len(gpu_index) == 1
        assert memory.used_bytes > 0
        engine.restart()
        assert len(gpu_index) == 0
        assert memory.used_bytes == 0

    def test_dedup_recovers_for_new_writes(self):
        """Post-restart content written twice still dedups (the index
        works fine for everything after the restart)."""
        engine = DedupEngine()
        engine.restart()
        assert self._commit(engine, b"z", 0) == "unique"
        assert self._commit(engine, b"z", 4096) == "dup"


class TestVolumeRestartAndChecksums:
    def test_volume_survives_restart(self):
        volume = ReducedVolume()
        data = compressible(4096, salt=1)
        volume.write(0, data)
        volume.restart()
        assert volume.read(0, 4096) == data   # data survives
        volume.write(4096, data)              # but is stored twice now
        assert volume.dedup_ratio() == pytest.approx(1.0)
        assert volume.engine.metadata.unique_chunks == 2

    def test_checksum_detects_corruption(self):
        volume = ReducedVolume()
        data = compressible(4096, salt=2)
        volume.write(0, data)
        record = volume.engine.metadata.resolve(0)
        # Bit-rot on the stored blob.
        corrupted = bytearray(record.blob)
        corrupted[10] ^= 0xFF
        record.blob = bytes(corrupted)
        with pytest.raises(MetadataError, match="checksum mismatch"):
            volume.read(0, 4096)

    def test_checksum_can_be_disabled(self):
        volume = ReducedVolume(verify_checksums=False)
        data = compressible(4096, salt=2)
        volume.write(0, data)
        record = volume.engine.metadata.resolve(0)
        assert record.checksum is None

    def test_clean_data_always_verifies(self):
        volume = ReducedVolume()
        for slot in range(8):
            volume.write(slot * 4096, compressible(4096, salt=slot % 3))
        for slot in range(8):
            assert volume.read(slot * 4096, 4096) == \
                compressible(4096, salt=slot % 3)


class TestScrubber:
    def _populated(self, n=6):
        volume = ReducedVolume()
        for slot in range(n):
            volume.write(slot * 4096, compressible(4096, salt=slot))
        return volume

    def test_clean_volume_scrubs_clean(self):
        volume = self._populated()
        report = volume.scrub()
        assert report["scanned"] == 6
        assert report["verified"] == 6
        assert report["corrupt"] == 0
        assert report["corrupt_offsets"] == []

    def test_scrub_finds_bit_rot(self):
        volume = self._populated()
        record = volume.engine.metadata.resolve(2 * 4096)
        rotted = bytearray(record.blob)
        rotted[5] ^= 0x40
        record.blob = bytes(rotted)
        report = volume.scrub()
        assert report["corrupt"] == 1
        assert report["corrupt_offsets"] == [2 * 4096]
        # The rest of the volume still verifies.
        assert report["verified"] == 5

    def test_scrub_reports_shared_chunk_at_every_offset(self):
        volume = ReducedVolume()
        data = compressible(4096, salt=1)
        volume.write(0, data)
        volume.write(4096, data)  # dedup: same record
        record = volume.engine.metadata.resolve(0)
        record.blob = record.blob[:-1] + bytes([record.blob[-1] ^ 1])
        report = volume.scrub()
        assert report["corrupt"] == 2  # both logical offsets affected

    def test_scrub_without_checksums_is_unverifiable(self):
        volume = ReducedVolume(verify_checksums=False)
        volume.write(0, compressible(4096, salt=1))
        report = volume.scrub()
        assert report["unverifiable"] == 1
        assert report["verified"] == 0

    def test_undecodable_blob_counts_as_corrupt(self):
        volume = self._populated(n=2)
        record = volume.engine.metadata.resolve(0)
        record.blob = b"\x00\x01"  # hopeless container
        report = volume.scrub()
        assert report["corrupt"] >= 1
