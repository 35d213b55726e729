"""Tests for delta-compressed storage on the reduced volume."""

import random

import pytest

from repro.storage import ReducedVolume
from repro.workload.datagen import BlockContentGenerator

CHUNK = 4096


def noise(seed: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(CHUNK))


def edited(data: bytes, n_edits: int, seed: int = 1) -> bytes:
    rng = random.Random(seed)
    out = bytearray(data)
    for _ in range(n_edits):
        out[rng.randrange(len(out))] = rng.randrange(256)
    return bytes(out)


class TestDeltaVolume:
    def test_near_duplicate_stored_as_delta(self):
        volume = ReducedVolume(enable_delta=True)
        base = noise(1)
        volume.write(0, base)
        near = edited(base, 5)
        volume.write(CHUNK, near)
        assert volume.deltas_stored == 1
        # The delta record is tiny versus the raw chunk.
        record = volume.engine.metadata.resolve(CHUNK)
        assert record.compressed_size < CHUNK // 8
        # And both read back exactly.
        assert volume.read(0, CHUNK) == base
        assert volume.read(CHUNK, CHUNK) == near

    def test_delta_disabled_by_default(self):
        volume = ReducedVolume()
        base = noise(2)
        volume.write(0, base)
        volume.write(CHUNK, edited(base, 5))
        assert volume.deltas_stored == 0

    def test_unrelated_chunks_not_deltaed(self):
        volume = ReducedVolume(enable_delta=True)
        volume.write(0, noise(3))
        volume.write(CHUNK, noise(4))
        assert volume.deltas_stored == 0

    def test_chains_capped_at_depth_one(self):
        """A delta of a delta's plaintext still bases on a full chunk."""
        volume = ReducedVolume(enable_delta=True)
        base = noise(5)
        volume.write(0, base)
        first = edited(base, 4, seed=2)
        volume.write(CHUNK, first)
        second = edited(base, 4, seed=3)
        volume.write(2 * CHUNK, second)
        assert volume.deltas_stored == 2
        for offset, expected in ((0, base), (CHUNK, first),
                                 (2 * CHUNK, second)):
            record = volume.engine.metadata.resolve(offset)
            if record.delta_base_id is not None:
                base_record = volume.engine.metadata.lookup(
                    record.delta_base_id)
                assert base_record.delta_base_id is None  # depth 1
            assert volume.read(offset, CHUNK) == expected

    def test_base_survives_discard_while_delta_lives(self):
        volume = ReducedVolume(enable_delta=True)
        base = noise(6)
        volume.write(0, base)
        near = edited(base, 5)
        volume.write(CHUNK, near)
        volume.discard(0, CHUNK)   # drop the base's logical mapping
        volume.engine.sweep()
        # The delta still reads: its base was pinned by the delta ref.
        assert volume.read(CHUNK, CHUNK) == near
        volume.engine.metadata.verify_invariants()

    def test_sweeping_delta_releases_base(self):
        volume = ReducedVolume(enable_delta=True)
        base = noise(7)
        volume.write(0, base)
        volume.write(CHUNK, edited(base, 5))
        volume.discard(0, CHUNK)
        volume.discard(CHUNK, CHUNK)
        first_sweep = volume.engine.sweep()
        second_sweep = volume.engine.sweep()
        assert first_sweep > 0
        assert second_sweep > 0  # the base, released by the delta
        assert volume.engine.metadata.unique_chunks == 0
        volume.engine.metadata.verify_invariants()

    def test_scrub_covers_delta_records(self):
        volume = ReducedVolume(enable_delta=True)
        base = noise(8)
        volume.write(0, base)
        volume.write(CHUNK, edited(base, 5))
        report = volume.scrub()
        assert report["verified"] == 2
        # Corrupt the delta blob; scrub must notice.
        record = volume.engine.metadata.resolve(CHUNK)
        record.blob = record.blob[:-1] + bytes(
            [record.blob[-1] ^ 1]) if record.blob else b"x"
        report = volume.scrub()
        assert report["corrupt"] >= 1

    def test_space_accounting_with_deltas(self):
        volume = ReducedVolume(enable_delta=True)
        base = noise(9)
        volume.write(0, base)
        for i in range(6):
            volume.write((i + 1) * CHUNK, edited(base, 4, seed=10 + i))
        # 7 logical chunks; physical ~ one full chunk + six tiny deltas.
        assert volume.logical_bytes == 7 * CHUNK
        assert volume.physical_bytes < CHUNK + 6 * (CHUNK // 8)
        assert volume.reduction_ratio() > 4.0
        volume.engine.metadata.verify_invariants()

    def test_compressible_near_duplicates(self):
        """Delta vs LZ: the smaller representation wins per chunk."""
        content = BlockContentGenerator(2.0, seed=11)
        volume = ReducedVolume(enable_delta=True)
        base = content.make_block(CHUNK, salt=0)
        volume.write(0, base)
        near = edited(base, 3, seed=5)
        volume.write(CHUNK, near)
        assert volume.read(CHUNK, CHUNK) == near
        record = volume.engine.metadata.resolve(CHUNK)
        # Whichever path was chosen, it beat storing raw.
        assert record.compressed_size < CHUNK
