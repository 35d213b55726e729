"""Fast path vs pre-PR reference: byte-for-byte stream equivalence.

The data-plane fast path (shared rolling-key array, integer-XOR match
extension, occurrence-indexed match finding, slice copy-out, the array
QuickLZ encoder, the grouped-container reader) promises *byte-identical*
output.  These tests hold every
rewritten loop to that promise against the executable pre-PR
specifications in :mod:`tests.reference_codecs`, over an adversarial
corpus chosen to hit the rewrites' edge cases: overlapping copies of
every small period, matches that end exactly at limits and windows,
hash-collision-heavy content, sub-``min_match`` tails, and GPU segment
seams.
"""

import bisect
import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.corpus import build_corpus, storage_blocks
from tests.reference_codecs import (
    ReferenceLzssCodec,
    ReferenceMatchFinder,
    ReferenceQuickLzCodec,
    bytes_to_tokens,
    decode_tokens,
    reference_decode_tokens,
    reference_merge_segments,
    reference_segment_bounds,
    reference_segment_tokens,
    refine_to_container,
    runwise_quicklz_decode,
    tokens_to_bytes,
    tokenwise_lzss_decode,
)
from repro.compression.lz_common import (
    DEFAULT_PARAMS,
    Literal,
    LzParams,
    Match,
    common_prefix_length,
    common_prefix_length_pair,
    copy_match,
)
from repro.compression.lzss import (
    MAX_CHAIN,
    IndexedMatchFinder,
    LzssCodec,
)
from repro.compression.postprocess import refine_tile
from repro.compression.quicklz import QuickLzCodec
from repro.errors import CompressionError, CorruptStreamError
from repro.gpu.kernels.lz import (
    _TILE_CHUNKS,
    LzTile,
    SegmentLzKernel,
    SegmentOutput,
)
from repro.workload.datagen import BlockContentGenerator


def adversarial_corpus() -> list[tuple[str, bytes]]:
    """The bench corpus plus blocks built to stress the fast paths."""
    blocks = list(build_corpus())
    rng = random.Random(0xDA7A)
    # Overlapping-copy periods 1..8: copy_match's slice replication must
    # reproduce the per-byte periodic extension for every small period.
    for period in range(1, 9):
        unit = bytes(rng.randrange(256) for _ in range(period))
        blocks.append((f"period{period}", (unit * 600)[:2048]))
    # Match lengths pinned at the encoders' caps: runs of exactly
    # max_match (LZSS 18) and _MAX_MATCH (QuickLZ 258) plus one.
    blocks.append(("cap18", b"x" * 18 + b"Q" + b"x" * 19 + b"Q"))
    blocks.append(("cap258", b"y" * 258 + b"Q" + b"y" * 259))
    # A repeat at exactly the LZSS window distance, and one just past it.
    probe = bytes(rng.randrange(256) for _ in range(32))
    filler = bytes(rng.randrange(1, 255) for _ in range(4096 - 32))
    blocks.append(("window_edge", probe + filler[:4096 - 64] + probe))
    blocks.append(("window_past", probe + filler + probe))
    # Two-symbol soup: dense 3-byte key collisions, long chains.
    blocks.append(("soup", bytes(rng.choice(b"ab")
                                 for _ in range(2048))))
    # Low-entropy random: frequent short matches that fizzle inside the
    # 8-byte head scan of common_prefix_length.
    blocks.append(("lowent", bytes(rng.randrange(16)
                                   for _ in range(2048))))
    # Text with long-range self-similarity.
    sentence = b"it was the best of times, it was the worst of times. "
    blocks.append(("dickens", (sentence * 40)[:2048]))
    for size in (0, 1, 2, 3, 4, 7):
        blocks.append((f"tiny{size}",
                       bytes(rng.randrange(256) for _ in range(size))))
    return blocks


CORPUS = adversarial_corpus()
IDS = [name for name, _ in CORPUS]
PAYLOADS = [payload for _, payload in CORPUS]


def _seeded_chunk(symbols: int, length: int, seed: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.randrange(symbols) for _ in range(length))


# -- primitive equivalence ---------------------------------------------------

def test_common_prefix_length_matches_naive_scan():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 600)
        # Skewed alphabet so long shared prefixes actually occur.
        data = bytes(rng.choice(b"aab") for _ in range(n))
        a = rng.randrange(n - 1)
        b = rng.randrange(n - 1)
        limit = rng.randrange(0, n - max(a, b))
        expected = 0
        while (expected < limit
               and data[a + expected] == data[b + expected]):
            expected += 1
        assert common_prefix_length(data, a, b, limit) == expected


def test_common_prefix_length_pair_matches_naive_scan():
    rng = random.Random(17)
    for _ in range(300):
        abuf = bytes(rng.choice(b"aab")
                     for _ in range(rng.randrange(1, 400)))
        bbuf = bytes(rng.choice(b"aab")
                     for _ in range(rng.randrange(1, 400)))
        a = rng.randrange(len(abuf))
        b = rng.randrange(len(bbuf))
        limit = rng.randrange(
            0, min(len(abuf) - a, len(bbuf) - b) + 1)
        expected = 0
        while (expected < limit
               and abuf[a + expected] == bbuf[b + expected]):
            expected += 1
        assert common_prefix_length_pair(abuf, a, bbuf, b,
                                         limit) == expected


def test_copy_match_matches_per_byte_loop():
    rng = random.Random(11)
    for _ in range(200):
        seed = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
        distance = rng.randrange(1, len(seed) + 1)
        length = rng.randrange(1, 400)
        fast = bytearray(seed)
        copy_match(fast, distance, length)
        slow = bytearray(seed)
        start = len(slow) - distance
        for i in range(length):
            slow.append(slow[start + i])
        assert fast == slow


# -- QuickLZ ----------------------------------------------------------------

def _assert_quicklz_matches_reference(payload):
    """Same stream as the per-position loop, and a round trip through
    both decoder generations."""
    reference = ReferenceQuickLzCodec()
    blob = QuickLzCodec().encode(payload)
    assert blob == reference.encode(bytes(payload))
    assert QuickLzCodec().decode(blob) == reference.decode(blob) \
        == bytes(payload)


@pytest.mark.parametrize("payload", PAYLOADS, ids=IDS)
def test_quicklz_streams_byte_identical(payload):
    _assert_quicklz_matches_reference(payload)


def _quicklz_parse_corpus() -> list[tuple[str, bytes]]:
    """Blocks aimed at the array encoder's chain walk and packer, on
    top of CORPUS (which already holds all-zero and periods 1..8, where
    the stride-4 seeds inside a match meet every alignment)."""
    rng = random.Random(0x9C12)
    blocks = [(f"len{size}", bytes(rng.randrange(256) for _ in range(size)))
              for size in range(9)]
    # Period 32 (the vdbench motif's), cut off mid-unit past 16 matches.
    unit = bytes(rng.randrange(256) for _ in range(32))
    blocks.append(("repeat32", (unit * 200)[:4099]))
    # Few distinct 3-byte groups: long same-index chains that run through
    # the skipped interiors of earlier matches.
    for symbols in (2, 3):
        blocks.append((f"alphabet{symbols}", _seeded_chunk(symbols, 6000,
                                                           symbols)))
    # Every repeat lies 66000 bytes back, past the 16-bit offset: the
    # table entry is out of range and the lookup ends there.
    far = bytes(rng.randrange(256) for _ in range(66000))
    blocks.append(("far_repeat", far + far[:3000]))
    # A match that ends on the last byte, and one and two bytes short of
    # it (positions with no three bytes left have no table index).
    unit = bytes(rng.randrange(256) for _ in range(40))
    for tail in range(3):
        blocks.append((f"match_to_tail{tail}",
                       unit + b"Q" + unit + b"Z" * tail))
    for ratio in (1.0, 1.5, 2.0, 3.0, 6.0):
        generator = BlockContentGenerator(ratio, seed=15)
        blocks.append((f"vdbench{ratio}", generator.make_block(4096,
                                                               salt=3)))
    return blocks


QUICKLZ_CORPUS = _quicklz_parse_corpus()


@pytest.mark.parametrize("payload", [payload for _, payload in QUICKLZ_CORPUS],
                         ids=[name for name, _ in QUICKLZ_CORPUS])
def test_quicklz_parse_matches_reference(payload):
    _assert_quicklz_matches_reference(payload)


@pytest.mark.parametrize("wrap", (bytearray, memoryview),
                         ids=("bytearray", "memoryview"))
def test_quicklz_accepts_any_bytes_like(wrap):
    _assert_quicklz_matches_reference(wrap(dict(CORPUS)["ratio2_0"]))


def _quicklz_match_lengths(blob):
    """The match lengths of a container, in stream order."""
    remaining = int.from_bytes(blob[:4], "big")
    pos, lengths = 4, []
    while remaining:
        flags = blob[pos]
        pos += 1
        for bit in range(8):
            if not remaining:
                break
            if flags >> bit & 1:
                lengths.append(blob[pos] + 3)
                pos += 3
                remaining -= lengths[-1]
            else:
                pos += 1
                remaining -= 1
    return lengths


def _distinct_unit(length, seed):
    """``length`` bytes from 1..63 in which no three-byte group repeats
    (``b"Q"``, ``b"Z"`` and zero bytes are foreign to it)."""
    rng = random.Random(seed)
    while True:
        unit = bytes(rng.randrange(1, 64) for _ in range(length))
        groups = [unit[i:i + 3] for i in range(length - 2)]
        if len(set(groups)) == len(groups):
            return unit


@pytest.mark.parametrize("length", (3, 4, 63, 64, 65, 257, 258))
def test_quicklz_match_of_exactly(length):
    """The compare reads 64 bytes first and up to 258 only when all 64
    agree: a repeat that stops one short of, on and one past either
    bound is one match of exactly that length (64: agrees for 64 bytes,
    differs at the 65th)."""
    unit = _distinct_unit(length, seed=length)
    payload = unit + b"Q" + unit + b"Z" + unit[:2]
    _assert_quicklz_matches_reference(payload)
    assert _quicklz_match_lengths(QuickLzCodec().encode(payload)) == [length]


@pytest.mark.parametrize("left", (3, 30, 63, 64, 65, 258))
def test_quicklz_match_capped_by_the_end(left):
    """The repeat is still running where the data stops, with fewer than
    a head, a head, and a whole match length left."""
    unit = _distinct_unit(300, seed=left)
    payload = unit + b"Q" + unit[:left]
    _assert_quicklz_matches_reference(payload)
    assert _quicklz_match_lengths(QuickLzCodec().encode(payload)) == [left]


def test_quicklz_repeat_longer_than_a_match_is_two_tokens():
    unit = _distinct_unit(300, seed=1)
    payload = unit + b"Q" + unit + b"Z"
    _assert_quicklz_matches_reference(payload)
    assert _quicklz_match_lengths(QuickLzCodec().encode(payload)) \
        == [258, 42]


def test_quicklz_offset_limit_is_exact():
    """A candidate 65535 bytes back is a match, one 65536 back is out of
    range and ends the lookup (the zero run between them lives in one
    table slot of its own and evicts nothing of the unit's)."""
    unit = _distinct_unit(40, seed=40)
    sizes = {}
    for distance in (0xFFFF, 0x10000):
        payload = unit + bytes(distance - len(unit)) + unit
        _assert_quicklz_matches_reference(payload)
        lengths = _quicklz_match_lengths(QuickLzCodec().encode(payload))
        sizes[distance] = lengths[-1]
    assert sizes[0xFFFF] == len(unit) and sizes[0x10000] != len(unit)


def test_quicklz_half_mebibyte_input_sorts_64_bit_tags():
    """From 2**19 bytes on a 13-bit index and a position no longer share
    32 bits; the parse must not notice.  Two symbols make long chains,
    sixteen fill both halves of the table (a tag that lost its top bit
    would merge them)."""
    for symbols in (2, 16):
        _assert_quicklz_matches_reference(
            _seeded_chunk(symbols, (1 << 19) + 5, 19))


@st.composite
def _repeats_near_the_compare_bounds(draw):
    """unit + gap + a prefix of unit whose length sits around the 64-byte
    head or the 258-byte match limit, + a short tail."""
    symbols = draw(st.sampled_from((2, 4, 256)))
    some = st.integers(0, symbols - 1)
    size = draw(st.sampled_from((62, 63, 64, 65, 66, 256, 257, 258, 259)))
    unit = bytes(draw(st.lists(some, min_size=size + 2, max_size=size + 2)))
    gap = bytes(draw(st.lists(some, max_size=5)))
    tail = bytes(draw(st.lists(some, max_size=70)))
    return unit + gap + unit[:size] + tail


@given(st.one_of(
    st.integers(2, 4).flatmap(
        lambda symbols: st.lists(st.integers(0, symbols - 1),
                                 max_size=1500).map(bytes)),
    _repeats_near_the_compare_bounds()))
@settings(max_examples=160, deadline=None)
def test_quicklz_small_alphabet_property(payload):
    _assert_quicklz_matches_reference(payload)


def _quicklz_container(original_length, tokens):
    """Hand-assemble a container: ints are literals, ``(length,
    offset)`` pairs are matches."""
    out = bytearray(original_length.to_bytes(4, "big"))
    for group_start in range(0, len(tokens), 8):
        group = tokens[group_start:group_start + 8]
        out.append(sum(1 << bit for bit, token in enumerate(group)
                       if isinstance(token, tuple)))
        for token in group:
            if isinstance(token, tuple):
                length, offset = token
                out.append(length - 3)
                out += (offset - 1).to_bytes(2, "big")
            else:
                out.append(token)
    return bytes(out)


def test_quicklz_decoder_expands_overlapping_copies():
    """Offset < length: the copy reads bytes it is itself producing."""
    for offset in range(1, 8):
        for length in (3, offset + 3, 4 * offset + 3, 258):
            seed = list(range(65, 65 + offset))
            blob = _quicklz_container(
                offset + length + 2,
                seed + [(length, offset)] + [0x21, 0x3F])
            plain = ReferenceQuickLzCodec().decode(blob)
            assert len(plain) == offset + length + 2
            assert QuickLzCodec().decode(blob) == plain


def test_quicklz_decoder_rejects_a_match_past_the_header_length():
    blob = _quicklz_container(10, [1, 2, 3, 4, (9, 4)])
    with pytest.raises(CompressionError, match="decoded 13 bytes"):
        QuickLzCodec().decode(blob)


def test_quicklz_decoder_rejects_an_offset_before_the_output():
    blob = _quicklz_container(12, [1, 2, 3, (5, 4), 7, 7, 7, 7])
    with pytest.raises(CorruptStreamError, match="offset 4 exceeds"):
        QuickLzCodec().decode(blob)


# -- LZSS -------------------------------------------------------------------

@pytest.mark.parametrize("payload", PAYLOADS,
                         ids=[f"{name}-greedy" for name in IDS])
def test_lzss_streams_byte_identical(payload):
    production = LzssCodec()
    reference = ReferenceLzssCodec()
    blob = production.encode(payload)
    assert blob == reference.encode(payload)
    assert production.decode(blob) == payload


@pytest.mark.parametrize("payload", PAYLOADS, ids=IDS)
def test_indexed_finder_reproduces_chain_finder(payload):
    """Under the greedy insert discipline the occurrence index must
    reproduce the incremental chain finder's answer at every parse
    position — including the bounded-chain eviction behaviour."""
    reference = ReferenceMatchFinder(payload)
    indexed = IndexedMatchFinder(payload)
    pos = 0
    n = len(payload)
    while pos < n:
        expected = reference.longest_match(pos)
        found = indexed.best_match(pos)
        assert (found and Match(*found)) == expected
        step = expected.length if expected is not None else 1
        for offset in range(step):
            reference.insert(pos + offset)
        pos += step


def test_decode_tokens_matches_reference_expander():
    rng = random.Random(13)
    for _ in range(100):
        tokens = [Literal(rng.randrange(256))
                  for _ in range(rng.randrange(1, 6))]
        for _ in range(rng.randrange(0, 30)):
            produced = sum(
                t.length if isinstance(t, Match) else 1 for t in tokens)
            if rng.random() < 0.6:
                tokens.append(Match(
                    distance=rng.randrange(1, produced + 1),
                    length=rng.randrange(3, 19)))
            else:
                tokens.append(Literal(rng.randrange(256)))
        assert decode_tokens(tokens) == reference_decode_tokens(tokens)


# -- decoders: the grouped-container reader vs the per-token oracles ---------

def _lzss_oracle(blob):
    """``LzssCodec.decode`` before the reader: one object per token."""
    tokens, original_length = bytes_to_tokens(blob)
    plain = decode_tokens(tokens)
    assert len(plain) == original_length
    return plain


def _outcome(decode, blob, **resume):
    """The plaintext, or the class and message of the typed error (any
    other exception — an IndexError out of an array — propagates)."""
    try:
        return decode(blob, **resume)
    except CompressionError as exc:
        return type(exc), str(exc)


def _assert_decoders_agree(production, oracle, blob, thorough=True):
    """Same bytes or same error, class and message, on the container,
    the container with garbage behind it, its proper prefixes (all of
    them when ``thorough``, 48 otherwise) and seeded 1-3-byte flips (200
    / 24).

    Every case shares a prefix with ``blob``, so the oracle resumes it
    from the last group of the intact decode that starts inside that
    prefix instead of from the header (one case in 16 is also decoded
    from scratch, which must come to the same).
    """
    rng = random.Random(len(blob))
    cuts = range(len(blob))
    cases = [(blob, 0), (blob + rng.randbytes(rng.randrange(1, 40)), 0),
             (bytearray(blob), 0), (memoryview(blob), 0)]
    cases += [(blob[:cut], cut) for cut in
              (cuts if thorough else rng.sample(cuts, min(48, len(cuts))))]
    for _ in range(200 if thorough else 24):
        damaged = bytearray(blob)
        flipped = []
        for _ in range(rng.randrange(1, 4)):
            value = rng.randrange(256)
            flipped.append(rng.randrange(len(damaged)))
            damaged[flipped[-1]] = value
        cases.append((bytes(damaged), min(flipped)))
    groups = []
    _outcome(oracle, blob, groups=groups)
    entered = [pos for pos, _ in groups]
    for number, (case, intact) in enumerate(cases):
        start = bisect.bisect_right(entered, intact)
        expected = _outcome(oracle, case,
                            start=groups[start - 1] if start else None)
        assert _outcome(production, case) == expected, bytes(case).hex()
        if number % 16 == 0:
            assert _outcome(oracle, case) == expected, bytes(case).hex()


def _with_declared_length(blob, length):
    return length.to_bytes(4, "big") + blob[4:]


def _storage_families():
    """32 calibrated ratio-2.0 blocks, then 32 ratio-3.0 ones: the
    texture the volume and the GPU path store."""
    for ratio in (2.0, 3.0):
        yield storage_blocks(ratio, seed=20)()[:32]


def _edge_payloads():
    """Lengths 0-9 (a final group of one token at 9), distinct and
    repeated bytes, and the adversarial corpus."""
    for size in range(10):
        yield bytes(range(size))
        yield b"a" * size
    yield from PAYLOADS


def _quicklz_edge_containers():
    lit = list(range(65, 73))
    yield _quicklz_container(259, [65, (258, 1)])       # one 258-byte match
    for offset in range(1, 9):                          # overlapping copies
        for length in (3, offset + 3, 4 * offset + 3, 258):
            yield _quicklz_container(offset + length + 1,
                                     lit[:offset] + [(length, offset)] + [33])
    full = lit[:5] + [(7, 2), 66, (3, 6)]               # exactly 8 tokens
    yield _quicklz_container(16, full)
    yield _quicklz_container(17, full + [67])           # ... and then 1
    yield _quicklz_container(32, full + full)
    ends_on_match = lit[:3] + [(9, 3)]                  # at the length
    yield _quicklz_container(12, ends_on_match)
    yield _quicklz_container(11, ends_on_match)         # overshoots it
    yield _quicklz_container(13, ends_on_match)         # stops short of it
    yield _quicklz_container(20, lit + lit)             # short, whole groups
    yield _quicklz_container(5, [65, (3, 2), 66])       # offset too far
    yield _quicklz_container(0, [])
    yield _quicklz_container(0, lit)                    # nothing declared


def test_quicklz_decoder_matches_the_runwise_oracle():
    codec = QuickLzCodec()
    for blob in _quicklz_edge_containers():
        _assert_decoders_agree(codec.decode, runwise_quicklz_decode, blob)
    for payload in _edge_payloads():
        _assert_decoders_agree(codec.decode, runwise_quicklz_decode,
                               codec.encode(payload))
    for blocks in _storage_families():
        for salt, block in enumerate(blocks):
            blob = codec.encode(block)
            assert codec.decode(blob) == block
            _assert_decoders_agree(codec.decode, runwise_quicklz_decode,
                                   blob, thorough=salt < 4)


def _lzss_edge_containers():
    lit = [Literal(value) for value in range(65, 73)]
    yield tokens_to_bytes([lit[0], Match(1, 18)], 19)   # the longest match
    for distance in range(1, 9):                        # overlapping copies
        for length in (3, distance + 3, 18):
            yield tokens_to_bytes(
                lit[:distance] + [Match(distance, length), lit[0]],
                distance + length + 1)
    full = lit[:5] + [Match(2, 7), lit[1], Match(6, 3)]  # exactly 8 tokens
    yield tokens_to_bytes(full, 16)
    yield tokens_to_bytes(full + [lit[2]], 17)          # ... and then 1
    yield tokens_to_bytes(full + full, 32)
    ends_on_match = tokens_to_bytes(lit[:3] + [Match(3, 9)], 12)
    yield ends_on_match                                 # at the length
    yield _with_declared_length(ends_on_match, 11)      # overshoots it
    yield _with_declared_length(ends_on_match, 13)      # stops short of it
    yield _with_declared_length(tokens_to_bytes(lit + lit, 16), 20)
    yield tokens_to_bytes([lit[0], Match(3, 3), lit[1], lit[2]], 6)  # too far
    yield tokens_to_bytes([], 0)
    yield _with_declared_length(tokens_to_bytes(lit, 8), 0)


def _lzss_decoders_agree(codec, blob, thorough=True):
    """The tokenwise oracle is the object-per-token one (pinned on the
    container itself); the cases run against the former, which resumes."""
    assert _outcome(tokenwise_lzss_decode, blob) == _outcome(_lzss_oracle,
                                                             blob)
    _assert_decoders_agree(codec.decode, tokenwise_lzss_decode, blob,
                           thorough)


def test_lzss_decoder_matches_the_token_oracle():
    codec = LzssCodec()
    for blob in _lzss_edge_containers():
        _lzss_decoders_agree(codec, blob)
    for payload in _edge_payloads():
        # All prefixes of the short containers, a sample of the long.
        blob = codec.encode(payload)
        _lzss_decoders_agree(codec, blob, thorough=len(blob) <= 1200)
    for blocks in _storage_families():
        launch = SegmentLzKernel(blocks, segments_per_chunk=8).execute()
        refined = [blob for tile in launch.tiles
                   for blob in refine_tile(tile)]
        for producer in ([codec.encode(block) for block in blocks], refined):
            for salt, (block, blob) in enumerate(zip(blocks, producer)):
                assert codec.decode(blob) == block
                _lzss_decoders_agree(codec, blob, thorough=salt < 1)


@given(st.binary(max_size=20000))
@settings(max_examples=40, deadline=None)
def test_decoders_round_trip_long_inputs(payload):
    """Multi-thousand-group walks through both containers."""
    for codec in (QuickLzCodec(), LzssCodec()):
        assert codec.decode(codec.encode(payload)) == payload


@pytest.mark.parametrize("offset", (4096, 4097, 20000, 65535))
def test_quicklz_decoder_follows_sixteen_bit_offsets(offset):
    """A match far behind thousands of all-literal groups."""
    rng = random.Random(offset)
    unit = rng.randbytes(40)
    payload = unit + rng.randbytes(offset - 40) + unit
    blob = _quicklz_container(len(payload),
                              [*payload[:offset], (40, offset)])
    assert QuickLzCodec().decode(blob) == payload
    assert runwise_quicklz_decode(blob) == payload


# -- GPU segment search ------------------------------------------------------

@pytest.mark.parametrize("segments", (2, 3, 8))
@pytest.mark.parametrize(
    "name", ("seam512", "period3", "window_past", "soup"))
def test_gpu_segment_tokens_match_reference(name, segments):
    payload = dict(CORPUS)[name]
    kernel = SegmentLzKernel([payload], segments_per_chunk=segments)
    (outputs,) = kernel.execute()
    assert outputs, "kernel produced no segments"
    for output in outputs:
        expected = reference_segment_tokens(
            payload, output.start, output.end, DEFAULT_PARAMS)
        assert output.tokens == expected, (
            f"segment [{output.start}, {output.end}) diverged")


def absorbable_seams(tile: LzTile, params: LzParams) -> list[int]:
    """Seams a repair pass could extend across, as token indices.

    A seam is the first token of a busy thread that is not the first
    busy thread of its chunk.  It is absorbable unless the token before
    it is a literal, or a match already at ``max_match``, or a match
    whose periodic extension breaks right there
    (``data[start - distance] != data[start]``).
    """
    n_segments = tile.seg_start.shape[1]
    counts = tile.counts.tolist()
    ends = np.cumsum(tile.counts).tolist()
    found = []
    for chunk in range(len(tile.chunks)):
        threads = range(chunk * n_segments, (chunk + 1) * n_segments)
        heads = [ends[t] - counts[t] for t in threads if counts[t]]
        for head in heads[1:]:
            distance = int(tile.distances[head - 1])
            start = int(tile.starts[head])
            if (distance and tile.lengths[head - 1] < params.max_match
                    and tile.data[start - distance] == tile.data[start]):
                found.append(head)
    return found


def assert_launch_matches_oracles(chunks, segments, params=DEFAULT_PARAMS):
    """One launch, every chunk: raw tokens and refined blob vs oracles.

    The raw tokens must equal the per-segment reference search (which
    only ever sees its own chunk, so a match crossing into a neighbour
    shows), no seam of theirs may be absorbable
    (:func:`absorbable_seams`), and the refined containers must equal
    the list-based refinement of those reference tokens — through
    ``refine_tile`` over the launch's tiles and, chunk by chunk, through
    the ``refine_to_container`` adapter.  A one-segment launch must also
    be the serial codec's stream: one chain rule, two executors.
    """
    kernel = SegmentLzKernel(chunks, segments_per_chunk=segments,
                             params=params)
    launch = kernel.execute()
    assert len(launch) == len(chunks)
    assert [len(tile.chunks) for tile in launch.tiles] == [
        min(_TILE_CHUNKS, len(chunks) - first)
        for first in range(0, len(chunks), _TILE_CHUNKS)]
    references = []
    for index, (chunk, outputs) in enumerate(zip(chunks, launch)):
        bounds = reference_segment_bounds(len(chunk), segments)
        assert [(o.segment_index, o.start, o.end)
                for o in outputs] == bounds
        assert all(o.chunk_index == index for o in outputs)
        expected = [(start, end,
                     reference_segment_tokens(chunk, start, end, params))
                    for _, start, end in bounds]
        for output, (start, end, tokens) in zip(outputs, expected):
            assert output.tokens == tokens, (
                f"chunk {index} segment [{start}, {end}) diverged")
        references.append(expected)
    assert not [seam for tile in launch.tiles
                for seam in absorbable_seams(tile, params)]
    expected_blobs = [
        tokens_to_bytes(reference_merge_segments(chunk, expected, params),
                        len(chunk), params)
        for chunk, expected in zip(chunks, references)]
    assert [blob for tile in launch.tiles
            for blob in refine_tile(tile, params)] == expected_blobs
    assert [refine_to_container(chunk, outputs, params)
            for chunk, outputs in zip(chunks, launch)] == expected_blobs
    for chunk, blob in zip(chunks, expected_blobs):
        assert LzssCodec(params).decode(blob) == chunk
    if segments == 1:
        assert expected_blobs == [LzssCodec(params).encode(chunk)
                                  for chunk in chunks]
    return kernel


@pytest.mark.parametrize("segments", (1, 3, 8))
def test_gpu_launch_over_whole_corpus_matches_oracles(segments):
    """Mixed lengths (0 bytes to past the window) in one launch that
    spans more than one search tile."""
    launch = PAYLOADS[5:] + PAYLOADS + PAYLOADS[3:20]
    assert len(launch) > _TILE_CHUNKS
    assert_launch_matches_oracles(launch, segments)


@pytest.mark.parametrize("symbols", (2, 3, 4))
def test_gpu_long_low_entropy_chunk_matches_oracles(symbols):
    """Longer than the window, chains at their 64-candidate bound."""
    rng = random.Random(symbols)
    chunk = bytes(rng.randrange(symbols) for _ in range(9000))
    assert_launch_matches_oracles([chunk], 8)
    assert_launch_matches_oracles([chunk], 1)


@pytest.mark.parametrize("params", (
    LzParams(window=64, min_match=3, max_match=18),
    LzParams(window=300, min_match=4, max_match=10),
    LzParams(window=4096, min_match=2, max_match=3),
    LzParams(window=100, min_match=2, max_match=2),
    LzParams(window=17, min_match=5, max_match=20),
), ids=repr)
def test_gpu_launch_honours_window_geometry(params):
    rng = random.Random(params.window)
    chunks = [bytes(rng.choice(b"abc") for _ in range(size))
              for size in (700, 1, 64, 2500, 3)]
    assert_launch_matches_oracles(chunks, 4, params)
    assert_launch_matches_oracles(chunks, 1, params)


# -- the lockstep walk's shortcuts, one adversary each ------------------------
#
# At a visited position the kernel compares the nearest candidate only.
# If that leaves the position open it tries (a) the trigram test — no
# in-window repeat of the three bytes ending just past the match means
# no longer candidate — then (b) the second candidate, and only then
# scans the chain.  Each chunk below is built so that one shortcut,
# applied carelessly, returns a different token than the oracle.

def _noise():
    """Endless bytes >= 0x80 in which no 3-byte group repeats for 8 KiB
    (a 12-bit counter, six bits a byte), so filler never matches."""
    counter = 0
    while True:
        yield 0x80 | (counter >> 6 & 0x3F)
        yield 0xC0 | (counter & 0x3F)
        counter += 1


def _build(*parts):
    """Concatenate byte strings; an int stands for that much filler."""
    noise = _noise()
    return b"".join(
        bytes(next(noise) for _ in range(part)) if isinstance(part, int)
        else part for part in parts)


def _token_at(chunk, spot, segments=1, params=DEFAULT_PARAMS):
    """The oracle's token starting at ``spot`` (None: inside a match)."""
    for _, start, end in reference_segment_bounds(len(chunk), segments):
        pos = start
        for token in reference_segment_tokens(chunk, start, end, params):
            if pos == spot:
                return token
            pos += token.length if isinstance(token, Match) else 1
    return None


LONG = b"abcdefghij"


def test_gpu_trigram_test_keeps_a_position_open_when_the_trigram_recurs():
    """Nearest candidate shares 4 bytes, the second 3, the third all 10:
    "cde" does occur earlier, so (a) must not settle for the 4."""
    chunk = _build(40, LONG, b"Q", 30, b"abcR", 30, b"abcdS", 30, LONG, b"T",
                   40)
    spot = chunk.index(LONG + b"T")
    assert _token_at(chunk, spot) == Match(
        distance=spot - chunk.index(LONG), length=10)
    kernel = assert_launch_matches_oracles([chunk], 1)
    assert kernel.scalar_scans >= 1


@pytest.mark.parametrize("gap, found", ((4096, True), (4097, False)),
                         ids=("at_window", "past_window"))
def test_gpu_trigram_test_honours_the_window(gap, found):
    """The long candidate (and with it the trigram's only repeat) sits
    exactly at, then one byte past, the window: found, then closed by
    (a) with the nearest candidate's 4 bytes."""
    tail = _build(b"abcR", 30, b"abcdS", 30)
    chunk = _build(8, LONG, b"Q", gap - len(LONG) - 1 - len(tail)) \
        + tail + LONG + b"T" + _build(20)
    spot = chunk.index(LONG + b"T")
    assert spot - chunk.index(LONG) == gap
    expected = Match(distance=gap, length=10) if found else Match(
        distance=spot - chunk.index(b"abcdS"), length=4)
    assert _token_at(chunk, spot) == expected
    kernel = assert_launch_matches_oracles([chunk], 1)
    assert (kernel.closed_by_trigram == 0) == found


def test_gpu_trigram_repeat_in_a_neighbouring_chunk_does_not_count():
    """The long string lives only in the chunks either side: inside its
    own chunk the position closes on the nearest candidate."""
    neighbour = _build(50, LONG, b"Q", 50)
    chunk = _build(40, b"abcR", 30, b"abcdS", 30, LONG, b"T", 40)
    spot = chunk.index(LONG + b"T")
    assert _token_at(chunk, spot) == Match(
        distance=spot - chunk.index(b"abcdS"), length=4)
    kernel = assert_launch_matches_oracles([neighbour, chunk, neighbour], 1)
    assert kernel.closed_by_trigram >= 1 and kernel.scalar_scans == 0


@pytest.mark.parametrize("third, length", ((LONG, 10), (b"abcdefQ", 6)),
                         ids=("third_longer", "third_ties"))
def test_gpu_chain_scan_resumes_from_the_second_candidate(third, length):
    """Second candidate beats the first (6 > 4) short of the cap, and a
    third is longer still — or only ties, and the nearer one stays."""
    chunk = _build(40, third, b"Q", 30, b"abcdefR", 30, b"abcdS", 30, LONG,
                   b"T", 40)
    spot = chunk.index(LONG + b"T")
    winner = third if length == 10 else b"abcdefR"
    assert _token_at(chunk, spot) == Match(
        distance=spot - chunk.index(winner), length=length)
    kernel = assert_launch_matches_oracles([chunk], 1)
    assert kernel.scalar_scans >= 1


@pytest.mark.parametrize("shorts", (MAX_CHAIN - 1, MAX_CHAIN),
                         ids=("64th_found", "65th_dropped"))
def test_gpu_chain_scan_stops_at_the_chain_bound(shorts):
    """The only candidate longer than 3 bytes is the 64th, then the
    65th, occurrence of the key counting back."""
    repeats = [part for i in range(shorts)
               for part in (b"abc", bytes([0x41 + i % 26]), 6)]
    chunk = _build(20, LONG, b"!", 6, *repeats, b"#", LONG, b"?", 20)
    spot = chunk.index(LONG + b"?")
    token = _token_at(chunk, spot)
    if shorts < MAX_CHAIN:
        assert token == Match(distance=spot - chunk.index(LONG), length=10)
    else:
        assert token.length == 3
    assert_launch_matches_oracles([chunk], 1)


@pytest.mark.parametrize("second", (b"abcR", LONG + b"klmnopqrstR"),
                         ids=("grown_by_scan", "grown_by_second"))
def test_gpu_match_that_outgrows_its_segment_is_a_literal(second):
    """The nearest candidate's 4 bytes end inside the segment; the best
    match, found only by growing, runs over its end."""
    head = _build(20, LONG, b"klmnopqrstQ", 20, second, 20, b"abcdS")
    chunk = head + _build(250 - len(head)) + LONG + b"klmnopqrstT" \
        + _build(241)
    assert len(chunk) == 512 and chunk.index(LONG + b"klmnopqrstT") == 250
    assert isinstance(_token_at(chunk, 250, segments=2), Literal)
    assert isinstance(_token_at(chunk, 250, segments=1), Match)
    for segments in (1, 2):
        assert_launch_matches_oracles([chunk], segments)


def test_gpu_chunk_tails_cap_the_match_below_max_match():
    """Matches that end with the chunk: capped by what is left (10, then
    3 bytes), nothing at the last two positions — whose would-be key
    runs into the next chunk of the launch."""
    capped = _build(30, b"abcdefghijklmnopqrstQ", 30, b"abcdS", 30, LONG)
    assert _token_at(capped, len(capped) - 10).length == 10
    three = _build(30, b"abcQ", 30, b"abc")
    assert _token_at(three, len(three) - 3) == Match(
        distance=len(three) - 3 - three.index(b"abc"), length=3)
    two = _build(30, b"abcQ", 30, b"ab")
    assert isinstance(_token_at(two, len(two) - 2), Literal)
    kernel = assert_launch_matches_oracles(
        [capped, two, b"cdefgh", three, two, b"c"], 1)
    assert kernel.closed_by_second >= 1


@pytest.mark.parametrize("segments", (1, 8))
def test_gpu_duplicate_chunks_either_side_of_a_tile_boundary(segments):
    """Two tiles, the second partial, the same chunk last in one and
    first in the other: neither may see the other's bytes."""
    twin = dict(CORPUS)["dickens"]
    filler = [b"tile filler %d" % i for i in range(_TILE_CHUNKS - 1)]
    launch = filler + [twin, twin, b"after", twin[:700], twin[:700]]
    assert len(launch) == _TILE_CHUNKS + 4
    assert_launch_matches_oracles(launch, segments)


@pytest.mark.parametrize("params", (
    LzParams(window=4096, min_match=6, max_match=21),
    LzParams(window=2000, min_match=20, max_match=35),
    LzParams(window=4096, min_match=4, max_match=19),
), ids=repr)
def test_gpu_launch_compares_as_many_words_as_the_geometry_needs(params):
    """``max_match - 3`` beyond two 8-byte words (and exactly two)."""
    generator = BlockContentGenerator(3.0, seed=18)
    chunks = [dict(CORPUS)[name] for name in ("dickens", "period7", "cap258")]
    chunks.append(generator.make_block(4096, salt=1))
    kernel = assert_launch_matches_oracles(chunks, 4, params)
    assert kernel.candidate_visits > 0


#: Shrinkable short chunks, plus seeded ones up to past twice the window
#: (shorter than 3, shorter than the segment grid, longer than 4096).
_CHUNKS = st.one_of(
    st.integers(2, 4).flatmap(
        lambda symbols: st.lists(st.integers(0, symbols - 1),
                                 min_size=1, max_size=600).map(bytes)),
    st.binary(min_size=1, max_size=600),
    st.builds(_seeded_chunk, st.sampled_from((2, 3, 4, 256)),
              st.integers(1, 9000), st.integers(0, 2 ** 32)))


@given(st.lists(_CHUNKS, min_size=1, max_size=3), st.integers(1, 8),
       st.sampled_from((DEFAULT_PARAMS,
                        LzParams(window=4096, min_match=6, max_match=21))))
@settings(max_examples=40, deadline=None)
def test_gpu_launch_property(drawn, segments, params):
    """Drawn chunks sit twice each, back to back, across the boundary
    between two search tiles: a match reaching into the neighbouring
    chunk (same bytes, so it would be a long one) breaks equality."""
    filler = [b"tile filler %d" % i for i in range(_TILE_CHUNKS - 2)]
    assert_launch_matches_oracles(
        filler + [chunk for chunk in drawn for _ in range(2)], segments,
        params)


@given(st.lists(_CHUNKS, min_size=1, max_size=3), st.integers(1, 8),
       st.sampled_from((DEFAULT_PARAMS,
                        LzParams(window=4096, min_match=6, max_match=21))))
@settings(max_examples=40, deadline=None)
def test_seam_repair_never_fires_on_kernel_output(drawn, segments, params):
    """A match the kernel keeps ended at a mismatch, the cap or the
    chunk's end, and one that would overrun its segment is a literal:
    no seam of its own output has anything to absorb, so refinement
    needs no repair pass."""
    launch = SegmentLzKernel(drawn + PAYLOADS[:12],
                             segments_per_chunk=segments,
                             params=params).execute()
    for tile in launch.tiles:
        assert absorbable_seams(tile, params) == []


def test_launch_with_empty_short_and_one_segment_chunks_across_tiles():
    """Empty chunks, chunks shorter than the 8-segment grid and a tile
    boundary in one launch; then the same chunks as 1-segment threads."""
    odd = [b"", b"a", b"abcabc", b"", PAYLOADS[0], b"xyzxyzxy", b""]
    launch = (odd * 10)[:_TILE_CHUNKS - 3] + odd + PAYLOADS[:5]
    assert len(launch) > _TILE_CHUNKS and not launch[_TILE_CHUNKS]
    for segments in (8, 1):
        assert_launch_matches_oracles(launch, segments)


def _hand_tile(*chunks):
    """An LzTile of hand-built ``(chunk, [(start, end, tokens), ...])``
    chunks (chunk-relative bounds), padded with idle threads to the
    longest segment list."""
    n_segments = max(len(segments) for _, segments in chunks)
    edges = np.cumsum([0] + [len(chunk) for chunk, _ in chunks])
    bounds, counts, starts, lengths, distances = [], [], [], [], []
    for offset, (chunk, segments) in zip(edges.tolist(), chunks):
        idle = [(len(chunk), len(chunk), [])] * (n_segments - len(segments))
        for start, end, tokens in segments + idle:
            bounds.append((offset + start, offset + end))
            counts.append(len(tokens))
            at = offset + start
            for token in tokens:
                match = isinstance(token, Match)
                starts.append(at)
                lengths.append(token.length if match else 1)
                distances.append(token.distance if match else 0)
                at += lengths[-1]
    bounds = np.array(bounds).reshape(len(chunks), n_segments, 2)
    return LzTile(
        first=0, chunks=[chunk for chunk, _ in chunks],
        data=b"".join(chunk for chunk, _ in chunks), edges=edges,
        seg_start=bounds[:, :, 0], seg_end=bounds[:, :, 1],
        counts=np.array(counts), starts=np.array(starts, dtype=np.intp),
        lengths=np.array(lengths, dtype=np.intp),
        distances=np.array(distances, dtype=np.intp))


def _literals(text):
    return [Literal(value) for value in text]


#: Segment 0 ends on a match whose periodic extension would swallow
#: segment 1 whole and then segment 2's leading literals.
_SWALLOW = (b"abcdefgh" * 2 + b"abcdXY", [
    (0, 11, _literals(b"abcdefgh") + [Match(8, 3)]),
    (11, 13, _literals(b"de")),
    (13, 22, _literals(b"fgh") + [Match(8, 4)] + _literals(b"XY"))])
#: Segment 0 ends on a match one short of the length field's cap.
_CAPPED = (b"q" * 40, [
    (0, 18, [Literal(ord("q")), Match(1, 17)]),
    (18, 40, [Literal(ord("q"))] * 4 + [Match(1, 18)])])
#: Ends on a match with room whose periodic extension goes on matching
#: — in tile coordinates — through the first bytes of _FOLLOWS.
_ENDS_ON_MATCH = (b"abcabc", [(0, 3, _literals(b"abc")),
                              (3, 6, [Match(3, 3)])])
_FOLLOWS = (b"abcabcxyz", [(0, 3, _literals(b"abc")),
                           (3, 9, [Match(3, 3)] + _literals(b"xyz"))])


@pytest.mark.parametrize("chunks, expected_seams", (
    ((_SWALLOW, _FOLLOWS), [9]),
    ((_CAPPED, _FOLLOWS), [2]),
    ((_FOLLOWS, _SWALLOW, _FOLLOWS, _CAPPED), [16, 33]),
    ((_ENDS_ON_MATCH, _FOLLOWS, _ENDS_ON_MATCH, (b"abc", [])), []),
), ids=("swallow", "capped", "both_inside", "chunk_boundary"))
def test_tile_repairs_each_chunk_as_if_alone(chunks, expected_seams):
    """Refinement is validate + pack, chunk by chunk as if each were
    alone: seams a repair pass would have grown (the chained swallow,
    one short of the length field) are packed exactly as handed over,
    beside chunks with no such seam, and a match that ends its chunk
    takes nothing of the next chunk's leading literals."""
    chunks = [(chunk, segments or [(0, len(chunk), _literals(chunk))])
              for chunk, segments in chunks]
    tile = _hand_tile(*chunks)
    assert absorbable_seams(tile, DEFAULT_PARAMS) == expected_seams
    blobs = refine_tile(tile)
    merged = [reference_merge_segments(chunk, segments)
              for chunk, segments in chunks]
    assert blobs == [tokens_to_bytes(tokens, len(chunk))
                     for tokens, (chunk, _) in zip(merged, chunks)]
    assert blobs == [refine_to_container(chunk, tile.outputs(index))
                     for index, (chunk, _) in enumerate(chunks)]
    for (_, segments), tokens in zip(chunks, merged):
        assert tokens == [t for _, _, part in segments for t in part]
    assert [LzssCodec().decode(blob) for blob in blobs] \
        == [chunk for chunk, _ in chunks]


def _corruptible_tile():
    """A three-chunk, four-segment kernel tile with private arrays, and
    in its middle chunk's second segment: the thread, its token range
    and its first match at least 8 bytes into the chunk."""
    chunks = [dict(CORPUS)[name][:1024]
              for name in ("dickens", "lowent", "soup")]
    (tile,) = SegmentLzKernel(chunks, segments_per_chunk=4).execute().tiles
    tile = dataclasses.replace(tile, **{
        name: getattr(tile, name).copy() for name in (
            "seg_start", "seg_end", "counts", "starts", "lengths",
            "distances")})
    thread = 1 * 4 + 1
    hi = int(np.cumsum(tile.counts)[thread])
    lo = hi - int(tile.counts[thread])
    match = next(i for i in range(lo, hi) if tile.distances[i])
    return tile, thread, lo, hi, match


def _gap(tile, thread, lo, hi, match):
    tile.seg_start[1, 2] += 1


def _overlap(tile, thread, lo, hi, match):
    tile.seg_start[1, 2] -= 1


def _short_cover(tile, thread, lo, hi, match):
    tile.seg_end[1, 3] -= 1


def _token_gap(tile, thread, lo, hi, match):
    tile.lengths[match] -= 1


def _token_overlap(tile, thread, lo, hi, match):
    tile.lengths[match] += 1


def _shifted(tile, thread, lo, hi, match):
    tile.starts[lo + 1:hi] += 1


def _handed_over(tile, thread, lo, hi, match):
    tile.counts[thread] += 1
    tile.counts[thread + 1] -= 1


def _past_window(tile, thread, lo, hi, match):
    tile.distances[match] = 4097


def _negative(tile, thread, lo, hi, match):
    tile.distances[match] = -1


def _into_previous_chunk(tile, thread, lo, hi, match):
    """A legal tile position, but one byte before the match's chunk."""
    tile.distances[match] = tile.starts[match] - tile.edges[1] + 1
    assert tile.starts[match] - tile.distances[match] == tile.edges[1] - 1


def _wide_literal(tile, thread, lo, hi, match):
    tile.distances[match] = 0


@pytest.mark.parametrize("corrupt, message", (
    (_gap, "segment 2 starts at 513, expected 512"),
    (_overlap, "segment 2 starts at 511, expected 512"),
    (_short_cover, "segments cover 1023 bytes of a 1024-byte chunk"),
    (_token_gap, r"segment 1 tokens expand to 255 bytes, span is 256"),
    (_token_overlap, r"segment 1 tokens expand to 257 bytes, span is 256"),
    (_shifted, "segment 1 token positions do not follow its token lengths"),
    (_handed_over, r"segment 1 tokens expand to \d+ bytes, span is 256"),
    (_past_window, "match distance 4097 outside window 4096"),
    (_negative, "match distance -1 outside window 4096"),
    (_into_previous_chunk, r"match at (\d+) reaches \d+ bytes back"),
    (_wide_literal, r"literal token covers \d+ bytes"),
), ids=lambda value: getattr(value, "__name__", None))
def test_corrupt_tile_raises_through_tile_and_adapter(corrupt, message):
    """Every tiling and field check, on the middle chunk of a tile: the
    same message from ``refine_tile`` and — for that chunk's segment
    views — from the ``refine_to_container`` adapter."""
    tile, *where = _corruptible_tile()
    assert len(refine_tile(tile)) == 3
    corrupt(tile, *where)
    with pytest.raises(CompressionError, match=message) as whole:
        refine_tile(tile)
    with pytest.raises(CompressionError, match=message) as alone:
        refine_to_container(tile.chunks[1], tile.outputs(1))
    assert str(whole.value) == str(alone.value)
    for untouched in (0, 2):
        refine_to_container(tile.chunks[untouched], tile.outputs(untouched))


def test_token_count_mismatch_raises_through_tile_and_adapter():
    tile, thread, *_ = _corruptible_tile()
    tile.counts[thread] += 1
    with pytest.raises(CompressionError, match="disagree in length"):
        refine_tile(tile)
    tile, *_ = _corruptible_tile()
    outputs = tile.outputs(1)
    outputs[1].distances = outputs[1].distances[:-1]
    with pytest.raises(CompressionError,
                       match="segment 1 token arrays disagree in length"):
        refine_to_container(tile.chunks[1], outputs)


@pytest.mark.parametrize("length", (2, 19))
def test_match_length_outside_the_field_raises_through_tile_and_adapter(
        length):
    """Tiling intact; the only thing wrong is a length no field holds."""
    body = [Literal(ord("q")), Match(1, length), Match(1, 18)]
    spoiled = (b"q" * (19 + length), [(0, 1 + length, body[:2]),
                                      (1 + length, 19 + length, body[2:])])
    tile = _hand_tile(_FOLLOWS, spoiled)
    message = rf"match length {length} outside \[3, 18\]"
    with pytest.raises(CompressionError, match=message):
        refine_tile(tile)
    with pytest.raises(CompressionError, match=message):
        refine_to_container(spoiled[0], tile.outputs(1))
    assert refine_to_container(_FOLLOWS[0], tile.outputs(0))


def _segment_output(chunk, index, start, tokens):
    """A SegmentOutput holding ``tokens`` laid out from ``start``."""
    lengths = [t.length if isinstance(t, Match) else 1 for t in tokens]
    positions = np.cumsum([start] + lengths[:-1])
    return SegmentOutput(
        chunk_index=0, segment_index=index, start=start,
        end=start + sum(lengths), positions=positions,
        lengths=np.array(lengths),
        distances=np.array([t.distance if isinstance(t, Match) else 0
                            for t in tokens]),
        chunk=chunk)


def test_short_raw_match_is_rejected_by_the_length_field_check():
    """A 2-byte match is invalid as the kernel's output even though the
    literals after it continue its period into the field's range."""
    chunk = b"abababab"
    segments = [
        (0, 4, [Literal(ord("a")), Literal(ord("b")), Match(2, 2)]),
        (4, 8, [Literal(b) for b in b"abab"]),
    ]
    outputs = [_segment_output(chunk, index, start, tokens)
               for index, (start, _, tokens) in enumerate(segments)]
    with pytest.raises(CompressionError, match="match length 2"):
        reference_merge_segments(chunk, segments)
    with pytest.raises(CompressionError, match="match length 2"):
        refine_to_container(chunk, outputs)
