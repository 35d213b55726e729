"""Tests for the fixed chunker and the hashing stage."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dedup import FixedChunker
from repro.dedup.hashing import fingerprint_chunk, fingerprint_window
from repro.errors import ChunkingError, ConfigError, DedupError
from repro.types import Chunk


class TestFixedChunker:
    def test_exact_multiple(self):
        chunks = list(FixedChunker(4).chunk(b"abcdefgh"))
        assert [(c.offset, c.size) for c in chunks] == [(0, 4), (4, 4)]
        assert chunks[0].payload == b"abcd"

    def test_trailing_short_chunk(self):
        chunks = list(FixedChunker(4).chunk(b"abcdef"))
        assert chunks[-1].size == 2

    def test_empty_stream(self):
        assert list(FixedChunker(4).chunk(b"")) == []

    def test_base_offset_propagates(self):
        chunks = list(FixedChunker(4).chunk(b"abcdefgh", base_offset=100))
        assert [c.offset for c in chunks] == [100, 104]

    def test_invalid_size_rejected(self):
        with pytest.raises(ChunkingError):
            FixedChunker(0)

    @given(st.binary(max_size=5000), st.integers(1, 512))
    @settings(max_examples=40, deadline=None)
    def test_chunks_reassemble_property(self, data, size):
        chunks = list(FixedChunker(size).chunk(data))
        assert b"".join(c.payload for c in chunks) == data
        assert all(c.size <= size for c in chunks)


class TestHashingStage:
    def test_payload_mode_hashes_real_bytes(self):
        chunk = Chunk(offset=0, size=5, payload=b"hello")
        assert fingerprint_chunk(chunk) == hashlib.sha1(b"hello").digest()
        assert chunk.fingerprint is not None

    def test_descriptor_mode_requires_synthetic_fingerprint(self):
        chunk = Chunk(offset=0, size=4096)
        with pytest.raises(DedupError):
            fingerprint_chunk(chunk)

    def test_descriptor_mode_passes_through(self):
        fp = bytes(range(20))
        chunk = Chunk(offset=0, size=4096, fingerprint=fp)
        assert fingerprint_chunk(chunk) == fp

    def test_batch(self):
        chunks = [Chunk(offset=i * 4, size=4, payload=bytes([i]) * 4)
                  for i in range(5)]
        digests = fingerprint_window(chunks)
        assert digests == [hashlib.sha1(bytes([i]) * 4).digest()
                           for i in range(5)]

    def test_identical_payloads_share_fingerprints(self):
        a = Chunk(offset=0, size=4, payload=b"dupe")
        b = Chunk(offset=4, size=4, payload=b"dupe")
        assert fingerprint_chunk(a) == fingerprint_chunk(b)


class TestChunkType:
    def test_payload_length_checked(self):
        with pytest.raises(ConfigError):
            Chunk(offset=0, size=10, payload=b"short")

    def test_fingerprint_length_checked(self):
        with pytest.raises(ConfigError):
            Chunk(offset=0, size=4, payload=b"abcd", fingerprint=b"x")

    def test_effective_ratio_prefers_measured(self):
        chunk = Chunk(offset=0, size=4096, comp_ratio=3.0)
        assert chunk.effective_ratio() == 3.0
        chunk.compressed_size = 1024
        assert chunk.effective_ratio() == 4.0

    def test_effective_ratio_defaults_to_one(self):
        assert Chunk(offset=0, size=4096).effective_ratio() == 1.0
