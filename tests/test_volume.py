"""End-to-end tests for the functional ReducedVolume."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import LzssCodec, QuickLzCodec
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

    def test_compression_disabled(self):
        volume = ReducedVolume(enable_compression=False)
        data = compressible(4096)
        volume.write(0, data)
        assert volume.physical_bytes == 4096
        assert volume.read(0, 4096) == data

    def test_custom_codec(self):
        volume = ReducedVolume(codec=LzssCodec())
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
    volume = ReducedVolume(codec=codec)
    for slot in range(offsets):
        volume.write(slot * 4096, compressible(4096, salt=slot % contents))
    assert volume.engine.metadata.unique_chunks == contents
    return volume


def _flip_stored_byte(volume, offset):
    record = volume.engine.metadata.resolve(offset)
    original = record.blob
    blob = bytearray(original)
    blob[len(blob) // 2] ^= 0x40
    record.blob = bytes(blob)
    return record, original


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
        record, original = _flip_stored_byte(volume, 0)
        assert volume.scrub()["corrupt"] == 4
        record.blob = original
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
        record = volume.engine.metadata.resolve(4096)
        original, plaintext = record.blob, compressible(4096, salt=1)
        reported = 0
        for spot in range(len(original)):
            blob = bytearray(original)
            blob[spot] ^= 0x01
            record.blob = bytes(blob)
            try:
                damaged = QuickLzCodec().decode(record.blob) != plaintext
            except ReproError:
                damaged = True
            report = volume.scrub()
            assert report["corrupt_offsets"] == \
                ([4096, 4 * 4096] if damaged else []), spot
            assert report["verified"] + report["corrupt"] == 6
            reported += damaged
        assert reported > len(original) * 0.9
