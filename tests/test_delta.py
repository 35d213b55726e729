"""Tests for delta compression and resemblance sketches."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.delta import DeltaCodec, SimilarityIndex, sketch
from repro.errors import CompressionError, CorruptStreamError


def noise(n, seed=0):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


def edited(data: bytes, n_edits: int, seed: int = 1) -> bytes:
    """A near-duplicate: a few point edits on a copy."""
    rng = random.Random(seed)
    out = bytearray(data)
    for _ in range(n_edits):
        out[rng.randrange(len(out))] = rng.randrange(256)
    return bytes(out)


class TestDeltaCodec:
    def test_identical_chunks_tiny_delta(self):
        codec = DeltaCodec()
        data = noise(4096)
        delta = codec.encode(data, data)
        assert codec.decode(data, delta) == data
        assert len(delta) < 40  # a handful of COPY ops

    def test_near_duplicate_small_delta(self):
        codec = DeltaCodec()
        base = noise(4096, seed=2)
        target = edited(base, n_edits=6)
        delta = codec.encode(base, target)
        assert codec.decode(base, delta) == target
        assert len(delta) < len(target) / 8

    def test_unrelated_chunks_fall_back_to_literals(self):
        codec = DeltaCodec()
        base = noise(4096, seed=3)
        target = noise(4096, seed=4)
        delta = codec.encode(base, target)
        assert codec.decode(base, delta) == target
        # No useful copies: delta ~ target + framing.
        assert len(delta) < len(target) + 64

    def test_empty_target(self):
        codec = DeltaCodec()
        assert codec.decode(b"ref", codec.encode(b"ref", b"")) == b""

    def test_insertion_in_middle(self):
        codec = DeltaCodec()
        base = noise(2048, seed=5)
        target = base[:1000] + b"NEW BYTES HERE" + base[1000:]
        delta = codec.encode(base, target)
        assert codec.decode(base, delta) == target
        assert len(delta) < 120

    def test_truncated_delta_rejected(self):
        codec = DeltaCodec()
        base = noise(1024, seed=6)
        delta = codec.encode(base, edited(base, 2))
        with pytest.raises(CorruptStreamError):
            codec.decode(base, delta[:-3])

    def test_unknown_op_rejected(self):
        codec = DeltaCodec()
        bad = bytes([0, 0, 0, 4, 0x7F])
        with pytest.raises(CorruptStreamError):
            codec.decode(b"ref", bad)

    def test_copy_outside_reference_rejected(self):
        import struct
        bad = struct.pack(">I", 10) + b"\x01" + struct.pack(">IH", 100, 10)
        with pytest.raises(CorruptStreamError):
            DeltaCodec().decode(b"short", bad)

    def test_achieved_ratio(self):
        codec = DeltaCodec()
        base = noise(4096, seed=7)
        assert len(codec.encode(base, edited(base, 3))) < 4096 / 8.0

    @given(st.binary(max_size=1500), st.binary(max_size=1500))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, reference, target):
        codec = DeltaCodec()
        delta = codec.encode(reference, target)
        assert codec.decode(reference, delta) == target

    @given(st.binary(min_size=100, max_size=1200),
           st.integers(0, 20), st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_edited_copy_roundtrip_property(self, base, edits, seed):
        codec = DeltaCodec()
        target = edited(base, min(edits, len(base)), seed=seed)
        delta = codec.encode(base, target)
        assert codec.decode(base, delta) == target


class TestSketch:
    def test_identical_chunks_identical_sketch(self):
        data = noise(4096, seed=8)
        assert sketch(data) == sketch(data)

    def test_near_duplicates_share_features(self):
        base = noise(4096, seed=9)
        target = edited(base, n_edits=4)
        a, b = sketch(base), sketch(target)
        shared = sum(1 for x, y in zip(a, b) if x == y)
        assert shared >= 1

    def test_unrelated_chunks_rarely_collide(self):
        collisions = 0
        for seed in range(20):
            a = sketch(noise(2048, seed=100 + seed))
            b = sketch(noise(2048, seed=200 + seed))
            collisions += sum(1 for x, y in zip(a, b) if x == y)
        assert collisions <= 1

    def test_tiny_input(self):
        assert len(sketch(b"ab", n_features=4)) == 4

    def test_invalid_feature_count(self):
        with pytest.raises(CompressionError):
            sketch(b"data", n_features=0)


class TestSimilarityIndex:
    def test_find_near_duplicate(self):
        index = SimilarityIndex()
        base = noise(4096, seed=10)
        index.insert(chunk_id=7, chunk_sketch=sketch(base))
        target = edited(base, n_edits=5)
        assert index.find_similar(sketch(target)) == 7

    def test_unrelated_chunk_misses(self):
        index = SimilarityIndex()
        index.insert(1, sketch(noise(4096, seed=11)))
        assert index.find_similar(sketch(noise(4096, seed=12))) is None

    def test_statistics(self):
        index = SimilarityIndex()
        data = noise(2048, seed=13)
        index.insert(1, sketch(data))
        index.find_similar(sketch(data))
        index.find_similar(sketch(noise(2048, seed=14)))
        assert index.lookups == 2
        assert index.matches == 1

    def test_first_writer_wins(self):
        index = SimilarityIndex()
        data = noise(2048, seed=15)
        index.insert(1, sketch(data))
        index.insert(2, sketch(data))
        assert index.find_similar(sketch(data)) == 1
