"""End-to-end tests for the functional ReducedVolume."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.compression import LzssCodec, QuickLzCodec
from repro.compression.parallel_cpu import CpuCompressor
from repro.errors import BlockRangeError, MetadataError, ReproError
from repro.storage import ReducedVolume
from repro.workload.datagen import BlockContentGenerator


def compressible(n: int, salt: int = 0) -> bytes:
    return BlockContentGenerator(2.0, seed=9).make_block(n, salt=salt)


class TestWriteReadRoundtrip:
    def test_single_chunk(self):
        volume = ReducedVolume()
        data = compressible(4096)
        volume.write(0, data)
        assert volume.read(0, 4096) == data

    def test_multi_chunk_write(self):
        volume = ReducedVolume()
        data = b"".join(compressible(4096, salt=s) for s in range(8))
        volume.write(0, data)
        assert volume.read(0, len(data)) == data

    def test_short_tail_chunk(self):
        volume = ReducedVolume()
        data = compressible(4096) + b"tail-bytes"
        volume.write(0, data)
        assert volume.read(0, len(data)) == data

    def test_short_overwrite_keeps_the_bytes_past_its_end(self):
        """A short final chunk over a longer mapped one is a
        read-modify-write, not a truncation of the chunk."""
        volume = ReducedVolume()
        volume.write(0, b"x" * 4096)
        volume.write(4096, b"y" * 4096)
        volume.write(0, b"z" * 100)
        assert volume.logical_bytes == 8192
        assert volume.read(0, 4096) == b"z" * 100 + b"x" * 3996
        assert volume.read(0, 8192) == \
            b"z" * 100 + b"x" * 3996 + b"y" * 4096
        assert volume.scrub()["verified"] == 2
        volume.engine.metadata.verify_invariants()

    def test_incompressible_data_stored_raw(self):
        import random
        rng = random.Random(1)
        volume = ReducedVolume()
        data = bytes(rng.randrange(256) for _ in range(4096))
        volume.write(0, data)
        assert volume.read(0, 4096) == data
        # Raw storage: physical == logical for this chunk.
        assert volume.physical_bytes == 4096

    def test_unaligned_write_rejected(self):
        volume = ReducedVolume()
        with pytest.raises(BlockRangeError):
            volume.write(100, b"x" * 4096)

    def test_unaligned_read_rejected(self):
        volume = ReducedVolume()
        volume.write(0, compressible(4096))
        with pytest.raises(BlockRangeError):
            volume.read(1, 10)

    def test_unmapped_read_raises(self):
        volume = ReducedVolume()
        with pytest.raises(MetadataError):
            volume.read(0, 4096)

    def test_empty_write_is_noop(self):
        volume = ReducedVolume()
        volume.write(0, b"")
        assert volume.logical_bytes == 0

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 5)),
                    min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_random_writes_roundtrip_property(self, writes):
        """Random aligned writes (with overwrites) always read back."""
        volume = ReducedVolume()
        shadow = {}
        for slot, content_id in writes:
            data = compressible(4096, salt=content_id)
            volume.write(slot * 4096, data)
            shadow[slot] = data
        for slot, data in shadow.items():
            assert volume.read(slot * 4096, 4096) == data
        volume.engine.metadata.verify_invariants()


class TestReduction:
    def test_dedup_across_offsets(self):
        volume = ReducedVolume()
        data = compressible(4096)
        for slot in range(10):
            volume.write(slot * 4096, data)
        assert volume.dedup_ratio() == pytest.approx(10.0)
        assert volume.engine.metadata.unique_chunks == 1

    def test_compression_reduces_physical(self):
        volume = ReducedVolume()
        volume.write(0, compressible(4096))
        assert 0 < volume.physical_bytes < 4096

    def test_combined_reduction_ratio(self):
        volume = ReducedVolume()
        data = compressible(4096)
        volume.write(0, data)
        volume.write(4096, data)
        # dedup 2.0 x compression ~2.0 => reduction ~4.0
        assert volume.reduction_ratio() > 3.0

    def test_custom_codec(self):
        volume = ReducedVolume()
        volume.compressor = CpuCompressor(codec=LzssCodec())
        data = compressible(4096)
        volume.write(0, data)
        assert volume.read(0, 4096) == data

    def test_overwrite_releases_space(self):
        volume = ReducedVolume()
        volume.write(0, compressible(4096, salt=1))
        first_physical = volume.physical_bytes
        volume.write(0, compressible(4096, salt=2))
        # Old chunk freed, new one stored: physical stays in the same
        # ballpark instead of doubling.
        assert volume.physical_bytes < first_physical * 1.8
        assert volume.logical_bytes == 4096

    def test_discard_frees_space(self):
        volume = ReducedVolume()
        volume.write(0, compressible(4096))
        volume.discard(0, 4096)
        assert volume.logical_bytes == 0
        assert volume.physical_bytes == 0

    def test_discard_unaligned_rejected(self):
        volume = ReducedVolume()
        with pytest.raises(BlockRangeError):
            volume.discard(0, 100)

    def test_destage_accounting_via_flush(self):
        volume = ReducedVolume(bin_buffer_capacity=1, bin_buffer_total=None)
        volume.write(0, compressible(4096, salt=1))
        volume.write(4096, compressible(4096, salt=2))
        assert volume.destaged_bytes > 0


class CountingCodec(QuickLzCodec):
    """QuickLZ that counts its ``decode`` calls."""

    def __init__(self):
        self.decodes = 0

    def decode(self, blob):
        self.decodes += 1
        return super().decode(blob)


def _shared_volume(codec=None, offsets=64, contents=20):
    """``offsets`` logical chunks over ``contents`` distinct contents."""
    volume = ReducedVolume()
    if codec is not None:
        volume.compressor = CpuCompressor(codec=codec)
    for slot in range(offsets):
        volume.write(slot * 4096, compressible(4096, salt=slot % contents))
    assert volume.engine.metadata.unique_chunks == contents
    return volume


def _flip_stored_byte(volume, offset):
    """Flip one byte of the blob backing ``offset``; returns its
    physical id and the blob as it was."""
    record = volume.engine.metadata.resolve(offset)
    blob = bytearray(record.blob)
    blob[len(blob) // 2] ^= 0x40
    volume.engine.metadata.replace_blob(record.physical_id, bytes(blob))
    return record.physical_id, record.blob


class TestScrub:
    def test_each_stored_record_is_decoded_once_per_scan(self):
        codec = CountingCodec()
        volume = _shared_volume(codec)
        for scan in (1, 2):
            report = volume.scrub()
            assert report["scanned"] == report["verified"] == 64
            assert report["corrupt"] == report["unverifiable"] == 0
            assert codec.decodes == 20 * scan

    def test_corrupt_shared_record_lists_all_its_offsets(self):
        codec = CountingCodec()
        volume = _shared_volume(codec)
        _flip_stored_byte(volume, 3 * 4096)
        report = volume.scrub()
        # Content 3 backs offsets 3, 23 and 43 (63 is content 3 too).
        assert report["corrupt_offsets"] == [
            slot * 4096 for slot in (3, 23, 43, 63)]
        assert report["corrupt"] == 4
        assert report["verified"] == 60
        assert report["scanned"] == 64
        assert codec.decodes == 20

    def test_verdicts_do_not_outlive_the_scan(self):
        volume = _shared_volume()
        physical_id, original = _flip_stored_byte(volume, 0)
        assert volume.scrub()["corrupt"] == 4
        volume.engine.metadata.replace_blob(physical_id, original)
        report = volume.scrub()
        assert report["verified"] == report["scanned"] == 64
        assert report["corrupt_offsets"] == []

    def test_programming_error_in_a_decoder_is_not_bit_rot(self):
        class BrokenCodec(QuickLzCodec):
            def decode(self, blob):
                raise TypeError("decoder bug")

        volume = _shared_volume(BrokenCodec(), offsets=4, contents=2)
        with pytest.raises(TypeError, match="decoder bug"):
            volume.scrub()

    def test_flipped_byte_is_reported_once_per_logical_offset(self):
        """Whatever a flipped byte does to the container — a typed
        decode error or plaintext that fails its CRC — scrub reports
        it, at every offset that maps to the record.  (A flip that
        redirects a match to equal bytes changes nothing, and is
        verified.)"""
        volume = _shared_volume(offsets=6, contents=3)
        metadata = volume.engine.metadata
        record = metadata.resolve(4096)
        original, plaintext = record.blob, compressible(4096, salt=1)
        reported = 0
        for spot in range(len(original)):
            blob = bytearray(original)
            blob[spot] ^= 0x01
            metadata.replace_blob(record.physical_id, bytes(blob))
            try:
                damaged = QuickLzCodec().decode(bytes(blob)) != plaintext
            except ReproError:
                damaged = True
            report = volume.scrub()
            assert report["corrupt_offsets"] == \
                ([4096, 4 * 4096] if damaged else []), spot
            assert report["verified"] + report["corrupt"] == 6
            reported += damaged
        assert reported > len(original) * 0.9


CHUNK = 4096
SLOTS = 6
#: Few distinct contents, so writes keep hitting dedup.
POOL = [compressible(CHUNK, salt=salt) for salt in range(3)]


class VolumeAgainstModel(RuleBasedStateMachine):
    """Every operation of :class:`ReducedVolume` against a dict from
    chunk-aligned offset to the bytes that offset serves."""

    def __init__(self):
        super().__init__()
        self.volume = ReducedVolume()
        self.model: dict[int, bytes] = {}

    def _mapped_run(self, data, longest=3):
        """First slot and length of a run of mapped slots."""
        first = data.draw(st.sampled_from(sorted(self.model))) // CHUNK
        run = 1
        while (run < longest and (first + run) * CHUNK in self.model):
            run += 1
        return first, data.draw(st.integers(1, run))

    def _write(self, slot, data):
        self.volume.write(slot * CHUNK, data)
        for start in range(0, len(data), CHUNK):
            piece = data[start:start + CHUNK]
            old = self.model.get(slot * CHUNK + start, b"")
            self.model[slot * CHUNK + start] = piece + old[len(piece):]

    @rule(slot=st.integers(0, SLOTS - 1),
          contents=st.lists(st.integers(0, len(POOL) - 1), max_size=3),
          tail=st.sampled_from((0, 1, 100, 3000)),
          tail_content=st.integers(0, len(POOL) - 1))
    def write(self, slot, contents, tail, tail_content):
        data = b"".join(POOL[c] for c in contents) + POOL[tail_content][:tail]
        assume(data)
        self._write(slot, data)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), size=st.sampled_from((1, 100, 3000, CHUNK)),
          content=st.integers(0, len(POOL) - 1))
    def overwrite(self, data, size, content):
        offset = data.draw(st.sampled_from(sorted(self.model)))
        self._write(offset // CHUNK, POOL[content][-size:])

    @precondition(lambda self: self.model)
    @rule(data=st.data(), dst=st.integers(0, SLOTS + 2))
    def clone_range(self, data, dst):
        src, run = self._mapped_run(data)
        assume(dst + run <= src or src + run <= dst)
        self.volume.clone_range(src * CHUNK, dst * CHUNK, run * CHUNK)
        for i in range(run):
            self.model[(dst + i) * CHUNK] = self.model[(src + i) * CHUNK]

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def discard(self, data):
        first, run = self._mapped_run(data)
        self.volume.discard(first * CHUNK, run * CHUNK)
        for i in range(run):
            del self.model[(first + i) * CHUNK]

    @rule()
    def restart(self):
        self.volume.restart()

    @rule()
    def sweep(self):
        self.volume.engine.sweep()

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def read(self, data):
        """A multi-chunk read, over full chunks but the last."""
        first, run = self._mapped_run(data)
        pieces = [self.model[(first + i) * CHUNK] for i in range(run)]
        assume(all(len(piece) == CHUNK for piece in pieces[:-1]))
        expected = b"".join(pieces)
        assert self.volume.read(first * CHUNK, len(expected)) == expected

    @invariant()
    def serves_the_model(self):
        for offset, expected in self.model.items():
            assert self.volume.read(offset, len(expected)) == expected
        assert self.volume.logical_bytes == \
            sum(map(len, self.model.values()))
        self.volume.engine.metadata.verify_invariants()
        assert self.volume.scrub()["corrupt"] == 0


TestVolumeAgainstModel = VolumeAgainstModel.TestCase
TestVolumeAgainstModel.settings = settings(
    max_examples=40, stateful_step_count=12, deadline=None)


def test_sweep_then_rewrite_stores_the_content_again():
    """The shrunk case of the ``sweep`` rule: the sweep collects the
    overwritten chunk, so its content must index as new, not as a
    duplicate of the chunk that is gone."""
    volume = ReducedVolume()
    volume.write(0, POOL[0])
    volume.write(0, POOL[1])
    volume.engine.sweep()
    volume.write(0, POOL[0])
    assert volume.read(0, CHUNK) == POOL[0]
    assert volume.engine.counters["uniques"] == 3
    volume.engine.metadata.verify_invariants()
