"""Unit and property tests for the LZSS and QuickLZ codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    DEFAULT_PARAMS,
    LzParams,
    LzssCodec,
    QuickLzCodec,
)
from repro.errors import CompressionError, CorruptStreamError, ReproError
from repro.gpu.kernels.lz import SegmentLzKernel
from repro.workload.datagen import BlockContentGenerator
from tests.reference_codecs import (
    Literal,
    Match,
    bytes_to_tokens,
    decode_tokens,
    launch_outputs,
    refine_to_container,
    tokens_to_bytes,
)


def _compressible(n: int) -> bytes:
    """Highly repetitive test payload."""
    pattern = b"the quick brown fox jumps over the lazy dog. "
    return (pattern * (n // len(pattern) + 1))[:n]


def _incompressible(n: int, seed: int = 7) -> bytes:
    """Pseudo-random payload with full byte entropy."""
    import random
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


class TestLzParams:
    def test_defaults_fit_bit_fields(self):
        assert DEFAULT_PARAMS.window == 4096
        assert DEFAULT_PARAMS.max_match - DEFAULT_PARAMS.min_match == 15

    def test_window_too_large_rejected(self):
        with pytest.raises(CompressionError):
            LzParams(window=8192)

    def test_length_range_too_wide_rejected(self):
        with pytest.raises(CompressionError):
            LzParams(min_match=3, max_match=30)


class TestTokenContainer:
    def test_literal_roundtrip(self):
        tokens = [Literal(b) for b in b"hello"]
        blob = tokens_to_bytes(tokens, 5)
        parsed, length = bytes_to_tokens(blob)
        assert length == 5
        assert parsed == tokens

    def test_match_roundtrip(self):
        tokens = [Literal(b) for b in b"abcabc"] + [Match(3, 6)]
        blob = tokens_to_bytes(tokens, 12)
        parsed, _ = bytes_to_tokens(blob)
        assert parsed[-1] == Match(3, 6)

    def test_header_length_mismatch_rejected(self):
        with pytest.raises(CompressionError):
            tokens_to_bytes([Literal(0)], 5)

    def test_truncated_container_rejected(self):
        tokens = [Literal(b) for b in b"hello world"]
        blob = tokens_to_bytes(tokens, 11)
        with pytest.raises(CorruptStreamError):
            bytes_to_tokens(blob[:-2])

    def test_short_header_rejected(self):
        with pytest.raises(CorruptStreamError):
            bytes_to_tokens(b"\x00\x00")

    def test_forward_reference_rejected(self):
        # A match at the start of the stream references data that does not
        # exist yet; the parser must refuse it.
        bad = tokens_to_bytes(
            [Literal(b) for b in b"xyzxyz"] + [Match(3, 6)], 12)
        # Flip the first flags byte so the first token is parsed as a match.
        corrupted = bad[:4] + bytes([bad[4] | 1]) + bad[5:]
        with pytest.raises(CorruptStreamError):
            bytes_to_tokens(corrupted)

    def test_decode_tokens_overlapping_copy(self):
        # Classic LZ run-length trick: distance 1, length 8.
        out = decode_tokens([Literal(ord("a")), Match(1, 8)])
        assert out == b"a" * 9

    def test_decode_tokens_bad_distance(self):
        with pytest.raises(CorruptStreamError):
            decode_tokens([Match(5, 3)])

    def test_literal_validation(self):
        with pytest.raises(CompressionError):
            Literal(300)

    def test_match_validation(self):
        with pytest.raises(CompressionError):
            Match(9999, 5).validate(DEFAULT_PARAMS)
        with pytest.raises(CompressionError):
            Match(1, 100).validate(DEFAULT_PARAMS)


class TestLzssCodec:
    def test_empty_input(self):
        codec = LzssCodec()
        assert codec.decode(codec.encode(b"")) == b""

    def test_single_byte(self):
        codec = LzssCodec()
        assert codec.decode(codec.encode(b"x")) == b"x"

    def test_compressible_roundtrip_and_ratio(self):
        codec = LzssCodec()
        data = _compressible(4096)
        blob = codec.encode(data)
        assert codec.decode(blob) == data
        assert len(blob) < len(data) / 2  # repetitive text compresses well

    def test_incompressible_roundtrip(self):
        codec = LzssCodec()
        data = _incompressible(4096)
        blob = codec.encode(data)
        assert codec.decode(blob) == data
        # Random data expands slightly (flag overhead), never corrupts.
        assert len(blob) <= len(data) * 9 // 8 + 8

    def test_run_length_data(self):
        codec = LzssCodec()
        data = b"\x00" * 4096
        blob = codec.encode(data)
        assert codec.decode(blob) == data
        assert len(blob) < 600  # max_match=18 caps the per-token stride

    def test_ratio_helper(self):
        codec = LzssCodec()
        assert codec.ratio(b"") == 1.0
        assert codec.ratio(_compressible(4096)) > 2.0
        assert codec.ratio(_incompressible(4096)) < 1.05

    def test_matches_never_cross_window(self):
        codec = LzssCodec(params=LzParams(window=16))
        data = _compressible(600)
        tokens, _ = bytes_to_tokens(codec.encode(data), codec.params)
        for token in tokens:
            if isinstance(token, Match):
                assert token.distance <= 16
        assert codec.decode(codec.encode(data)) == data

    @given(st.binary(max_size=2048))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        codec = LzssCodec()
        assert codec.decode(codec.encode(data)) == data

    @given(st.integers(0, 255), st.integers(1, 3000))
    @settings(max_examples=30, deadline=None)
    def test_runs_roundtrip_property(self, byte, n):
        codec = LzssCodec()
        data = bytes([byte]) * n
        assert codec.decode(codec.encode(data)) == data


class TestGpuLzContainer:
    """The refined GPU stream is an LZSS container: damage to one must
    surface as a typed error, as PR 15 pinned for QuickLZ."""

    @pytest.fixture(scope="class")
    def containers(self):
        blocks = [BlockContentGenerator(3.0, seed=seed).make_block(
            4096, salt=seed) for seed in (1, 2, 3)]
        launch = SegmentLzKernel(blocks).execute()
        return [(block, refine_to_container(block, outputs))
                for block, outputs in zip(blocks, launch_outputs(launch))]

    def test_every_proper_prefix_is_a_corrupt_stream_error(self, containers):
        codec = LzssCodec()
        for block, blob in containers:
            assert codec.decode(blob) == block
            for cut in range(len(blob)):
                with pytest.raises(CorruptStreamError):
                    codec.decode(blob[:cut])

    def test_flipped_bytes_decode_or_raise_typed_errors(self, containers):
        codec = LzssCodec()
        for _, blob in containers:
            for offset in range(0, len(blob), 7):
                damaged = bytearray(blob)
                damaged[offset] ^= 0xFF
                try:
                    plain = codec.decode(bytes(damaged))
                except ReproError:
                    continue
                assert isinstance(plain, bytes)


class TestQuickLzCodec:
    def test_empty_input(self):
        codec = QuickLzCodec()
        assert codec.decode(codec.encode(b"")) == b""

    def test_compressible_roundtrip(self):
        codec = QuickLzCodec()
        data = _compressible(4096)
        blob = codec.encode(data)
        assert codec.decode(blob) == data
        assert len(blob) < len(data)

    def test_incompressible_roundtrip(self):
        codec = QuickLzCodec()
        data = _incompressible(4096)
        assert codec.decode(codec.encode(data)) == data

    def test_long_match_lengths(self):
        # QuickLZ matches reach 258 bytes; a long run exercises that.
        codec = QuickLzCodec()
        data = b"ab" * 2048
        blob = codec.encode(data)
        assert codec.decode(blob) == data
        assert len(blob) < 200

    def test_far_offsets_beyond_lzss_window(self):
        # Repeat separated by > 4 KiB: QuickLZ's 16-bit offsets find it,
        # so the repeated needle costs far less than a fresh one would.
        needle = b"0123456789abcdef" * 4
        middle = _incompressible(5000, seed=3)
        codec = QuickLzCodec()
        with_repeat = codec.encode(needle + middle + needle)
        without_repeat = codec.encode(
            needle + middle + _incompressible(len(needle), seed=9))
        assert codec.decode(with_repeat) == needle + middle + needle
        assert len(with_repeat) < len(without_repeat) - 30

    def test_truncated_stream_rejected(self):
        codec = QuickLzCodec()
        blob = codec.encode(_compressible(256))
        with pytest.raises(CorruptStreamError):
            codec.decode(blob[:-1])

    def test_short_header_rejected(self):
        with pytest.raises(CorruptStreamError):
            QuickLzCodec().decode(b"\x00")

    @pytest.mark.parametrize("data", (
        _incompressible(203),                       # all-literal groups
        _incompressible(67) + _compressible(150),   # mixed groups
        bytes(300),                                 # almost only matches
        b"abcabcabc-",                              # ten bytes, mixed
    ), ids=("random", "motif", "zeros", "short"))
    def test_every_proper_prefix_is_a_typed_error(self, data):
        """A cut anywhere — header, flags byte, literal run, match
        fields — is a CompressionError, never an IndexError."""
        codec = QuickLzCodec()
        blob = codec.encode(data)
        assert codec.decode(blob) == data
        for cut in range(len(blob)):
            with pytest.raises(CompressionError):
                codec.decode(blob[:cut])

    def test_truncated_literal_names_the_literal(self):
        blob = QuickLzCodec().encode(_incompressible(64))
        with pytest.raises(CorruptStreamError,
                           match="truncated in a literal"):
            QuickLzCodec().decode(blob[:10])

    def test_quicklz_long_matches_beat_lzss_on_periodic_text(self):
        """258-byte matches stride periodic data far faster than LZSS's
        18-byte length cap, so QuickLZ wins big here (the flip side of its
        weaker single-entry match table)."""
        data = _compressible(4096)
        assert len(QuickLzCodec().encode(data)) < len(
            LzssCodec().encode(data)) / 2

    @given(st.binary(max_size=2048))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        codec = QuickLzCodec()
        assert codec.decode(codec.encode(data)) == data

    @given(st.integers(0, 255), st.integers(1, 4000))
    @settings(max_examples=30, deadline=None)
    def test_runs_roundtrip_property(self, byte, n):
        codec = QuickLzCodec()
        data = bytes([byte]) * n
        assert codec.decode(codec.encode(data)) == data

    @given(st.binary(min_size=8, max_size=64), st.integers(2, 40))
    @settings(max_examples=30, deadline=None)
    def test_repeated_block_roundtrip_property(self, block, reps):
        codec = QuickLzCodec()
        data = block * reps
        assert codec.decode(codec.encode(data)) == data
