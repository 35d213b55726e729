"""QuickLZ-class fast LZ codec — the paper's CPU compression baseline.

Faithful to the *structure* of QuickLZ level 1 rather than its exact bit
layout: a single-entry hash table over 3-byte sequences (no chains —
that's what makes it fast and what costs it ratio against LZSS), greedy
emission, byte-oriented output.

Container format (big-endian)::

    [u32 original_length][stream]

Stream: groups of up to 8 tokens share a flags byte (bit=1 match).
Literal: 1 raw byte.  Match: 3 bytes ``llllllll oooooooo oooooooo`` —
length-3 (match lengths 3..258) and a 16-bit backward offset (1-based),
so matches may reference anywhere in the chunk, unlike the 4 KiB LZSS
window.

The encoder never builds the table.  What the table would hold at each
lookup follows from one stable sort of every position's table index, so
the sequential part of the parse visits only positions that can match
(DESIGN.md §9 has the equivalence argument;
``tests/reference_codecs.ReferenceQuickLzCodec`` is the per-position
loop it must reproduce byte for byte).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compression.lz_common import decode_grouped
from repro.errors import CompressionError

_MIN_MATCH = 3
_MAX_MATCH = 258
_MAX_OFFSET = 0xFFFF
_HASH_BITS = 13
_HASH_MULTIPLIER = np.uint32(2654435761)
#: Bytes compared before the full _MAX_MATCH: storage-block matches average
#: 28 bytes and 98 % end before 64.
_HEAD = 64

#: Parse state of a byte position.  Token starts stay 0; the interior of
#: a match is stamped with this pattern from its second byte on: every
#: fourth interior byte is a table *seed*, the rest never enter the table.
_SEEDED, _SKIPPED = 1, 2
_INTERIOR = bytes((_SEEDED, _SKIPPED, _SKIPPED, _SKIPPED)) * 65
#: ``_STAMP[length]``: the interior pattern of a match of that length.
_STAMP = tuple(_INTERIOR[:max(length - 1, 0)]
               for length in range(_MAX_MATCH + 1))


def _pack(raw: np.ndarray, state: bytearray, parse: np.ndarray) -> bytes:
    """Lay the parse, rows of (start, length, offset), out as the container.

    Every position the parse left at state 0 starts a token; a flags
    byte opens every group of up to eight, a literal is one byte and a
    match three, so token ``i`` lands ``i`` bytes plus two per earlier
    match plus one per opened group after the header.
    """
    tokens = np.flatnonzero(np.frombuffer(state, dtype=np.uint8) == 0)
    count = len(tokens)
    matched = np.searchsorted(tokens, parse[:, 0])
    is_match = np.zeros(count, dtype=bool)
    is_match[matched] = True
    slot = np.arange(count)
    at = 5 + (slot >> 3) + slot + 2 * (np.cumsum(is_match) - is_match)
    out = np.empty(4 + -(-count // 8) + count + 2 * len(parse),
                   dtype=np.uint8)
    out[:4] = np.frombuffer(struct.pack(">I", len(raw)), dtype=np.uint8)
    out[at[::8] - 1] = np.packbits(is_match, bitorder="little")
    # Every slot first takes its data byte (right for literals); the
    # match slots are then overwritten with their three field bytes.
    out[at] = raw[tokens]
    fields = at[matched]
    out[fields] = parse[:, 1] - _MIN_MATCH
    out[fields + 1] = parse[:, 2] >> 8
    out[fields + 2] = parse[:, 2] & 0xFF
    return out.tobytes()


class QuickLzCodec:
    """Fast greedy LZ with a single-entry hash table."""

    def encode(self, data: bytes) -> bytes:
        """Compress ``data``; always produces a decodable container.

        Array passes for indices and chains, a short parse, one pack.
        """
        if type(data) is not bytes:
            data = bytes(data)
        n = len(data)
        raw = np.frombuffer(data, dtype=np.uint8)
        # Table index of every position with three bytes left (the top of
        # the big-endian word that starts there).  uint32 wrap-around keeps
        # exactly the product bits the shift selects.
        key3 = np.ndarray((max(n - 2, 0),), ">u4", data + b"\0", 0, (1,)) >> 8
        index = (key3 * _HASH_MULTIPLIER) >> (32 - _HASH_BITS)
        # prev[p]: the nearest earlier position with p's table index.  The
        # single-entry table is never built: its entry for p's index, read
        # at p, is the first position down p's prev chain that the parse
        # entered into the table (DESIGN.md §9).  Tagged with their
        # positions no two indices are equal: a value sort is the stable one.
        bits = (n - 1).bit_length()
        tag = np.uint32 if _HASH_BITS + bits <= 32 else np.uint64
        tagged = (index.astype(tag, copy=False) << tag(bits)) \
            | np.arange(len(index), dtype=tag)
        tagged.sort()
        order = (tagged & tag((1 << bits) - 1)).astype(np.intp)
        ranked = tagged >> tag(bits)
        chained = ranked[1:] == ranked[:-1]
        later = order[1:][chained]
        prev_of = np.full(len(index), -1, dtype=np.intp)
        prev_of[later] = order[:-1][chained]
        # A position with no earlier same-index position is a literal
        # whatever the parse did: upcoming[p] is the first position >= p
        # that has one (n when none is left), and only those are visited.
        slots = np.full(n + 1, n, dtype=np.intp)
        slots[later] = later
        upcoming = memoryview(np.minimum.accumulate(slots[::-1])[::-1])
        prev = memoryview(prev_of)
        trigram = memoryview(key3)

        state = bytearray(n)
        from_bytes = int.from_bytes
        found: list[int] = []
        pos = upcoming[0]
        while pos < n:
            candidate = prev[pos]
            while candidate >= 0 and state[candidate] == _SKIPPED:
                candidate = prev[candidate]
            # An out-of-range entry ends the lookup; three equal bytes
            # are a match of at least _MIN_MATCH, anything else a literal.
            if (candidate < 0 or pos - candidate > _MAX_OFFSET
                    or trigram[candidate] != trigram[pos]):
                pos = upcoming[pos + 1]
                continue
            # Both spans read as big-endian integers: the top set bit of
            # their XOR lies in the first byte that differs.  Slices stop
            # at the end of the data, so the length of ours is the limit.
            ours = data[pos:pos + _HEAD]
            limit = len(ours)
            differ = (from_bytes(data[candidate:candidate + limit], "big")
                      ^ from_bytes(ours, "big"))
            if not differ and limit == _HEAD:
                ours = data[pos:pos + _MAX_MATCH]
                limit = len(ours)
                differ = (from_bytes(data[candidate:candidate + limit], "big")
                          ^ from_bytes(ours, "big"))
            length = limit - ((differ.bit_length() + 7) >> 3)
            state[pos + 1:pos + length] = _STAMP[length]
            found.extend((pos, length, pos - candidate - 1))
            pos = upcoming[pos + length]
        return _pack(raw, state, np.array(found, dtype=np.intp).reshape(-1, 3))

    def decode(self, blob: bytes) -> bytes:
        """Decompress a container produced by :meth:`encode`."""
        out, original_length = decode_grouped(
            blob, 3,
            lambda word: ((word >> 16) + _MIN_MATCH, (word & _MAX_OFFSET) + 1),
            "match offset {} exceeds produced output {}")
        if len(out) != original_length:
            raise CompressionError(
                f"decoded {len(out)} bytes, expected {original_length}")
        return out

    def ratio(self, data: bytes) -> float:
        """Achieved compression ratio (original/compressed) on ``data``."""
        if not data:
            return 1.0
        return len(data) / len(self.encode(data))
