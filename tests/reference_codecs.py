"""Pre-fast-path reference implementations of the data-plane hot loops.

These are the byte-at-a-time encoders/decoders exactly as they existed
before the data-plane fast path (shared key array, integer-XOR match
extension, slice copy-out, the array QuickLZ parse) replaced their inner
loops.  They are kept
in-tree as *executable specifications*: ``test_dataplane_equivalence``
asserts the production codecs emit byte-identical streams on an
adversarial corpus, and round-trips each stream through both decoder
generations.

Deliberately slow — do not import from production code.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.compression.lz_common import (
    DEFAULT_PARAMS,
    Literal,
    LzParams,
    Match,
    Token,
    copy_match,
    token_output_length,
    tokens_to_bytes,
)
from repro.errors import CompressionError, CorruptStreamError

_QLZ_MIN_MATCH = 3
_QLZ_MAX_MATCH = 258
_QLZ_MAX_OFFSET = 0xFFFF
_QLZ_HASH_BITS = 13

_MAX_CHAIN = 64


def _qlz_hash3(a: int, b: int, c: int) -> int:
    value = (a << 16) | (b << 8) | c
    return ((value * 2654435761) >> (32 - _QLZ_HASH_BITS)) \
        & ((1 << _QLZ_HASH_BITS) - 1)


class ReferenceQuickLzCodec:
    """The pre-fast-path QuickLZ codec, per-byte loops and all."""

    def encode(self, data: bytes) -> bytes:
        n = len(data)
        out = bytearray(struct.pack(">I", n))
        table: list[int] = [-1] * (1 << _QLZ_HASH_BITS)

        flags = 0
        flag_bit = 0
        flag_pos = len(out)
        out.append(0)
        pos = 0

        def close_group() -> None:
            nonlocal flags, flag_bit, flag_pos
            out[flag_pos] = flags
            flags = 0
            flag_bit = 0
            flag_pos = len(out)
            out.append(0)

        while pos < n:
            if flag_bit == 8:
                close_group()
            match_len = 0
            match_off = 0
            if pos + _QLZ_MIN_MATCH <= n:
                key = _qlz_hash3(data[pos], data[pos + 1], data[pos + 2])
                candidate = table[key]
                table[key] = pos
                if candidate >= 0 and pos - candidate <= _QLZ_MAX_OFFSET:
                    limit = min(n - pos, _QLZ_MAX_MATCH)
                    length = 0
                    while (length < limit
                           and data[candidate + length] == data[pos + length]):
                        length += 1
                    if length >= _QLZ_MIN_MATCH:
                        match_len = length
                        match_off = pos - candidate
            if match_len:
                flags |= 1 << flag_bit
                out.append(match_len - _QLZ_MIN_MATCH)
                out.append((match_off - 1) >> 8)
                out.append((match_off - 1) & 0xFF)
                for inside in range(pos + 1, pos + match_len, 4):
                    if inside + _QLZ_MIN_MATCH <= n:
                        table[_qlz_hash3(data[inside], data[inside + 1],
                                         data[inside + 2])] = inside
                pos += match_len
            else:
                out.append(data[pos])
                pos += 1
            flag_bit += 1

        if flag_bit == 0 and flag_pos == len(out) - 1:
            del out[flag_pos]
        else:
            out[flag_pos] = flags
        return bytes(out)

    def decode(self, blob: bytes) -> bytes:
        if len(blob) < 4:
            raise CorruptStreamError("container shorter than its header")
        (original_length,) = struct.unpack(">I", blob[:4])
        out = bytearray()
        pos = 4
        while len(out) < original_length:
            if pos >= len(blob):
                raise CorruptStreamError("container truncated mid-stream")
            flags = blob[pos]
            pos += 1
            for bit in range(8):
                if len(out) >= original_length:
                    break
                if flags & (1 << bit):
                    if pos + 3 > len(blob):
                        raise CorruptStreamError(
                            "container truncated in a match")
                    length = blob[pos] + _QLZ_MIN_MATCH
                    offset = ((blob[pos + 1] << 8) | blob[pos + 2]) + 1
                    pos += 3
                    if offset > len(out):
                        raise CorruptStreamError(
                            f"match offset {offset} exceeds produced "
                            f"output {len(out)}")
                    start = len(out) - offset
                    for i in range(length):
                        out.append(out[start + i])
                else:
                    out.append(blob[pos])
                    pos += 1
        if len(out) != original_length:
            raise CompressionError(
                f"decoded {len(out)} bytes, expected {original_length}")
        return bytes(out)


def runwise_quicklz_decode(blob: bytes, start=None, groups=None) -> bytes:
    """``QuickLzCodec.decode`` as it stood before the grouped-container
    reader (PR 20), body verbatim: one step per literal run and per
    match.  The oracle for every result, error class and error message
    of the production decoder.

    The state at a group's flags byte is ``(pos, bytes out so far)`` and
    depends on ``blob[:pos]`` alone: ``groups``, when given, collects it
    for every group entered, and ``start`` resumes from one — so a blob
    that shares a prefix with one already decoded (a cut, a flipped
    byte) need not be decoded from its header again.
    """
    end = len(blob)
    if end < 4:
        raise CorruptStreamError("container shorter than its header")
    (original_length,) = struct.unpack(">I", blob[:4])
    pos, out = (start[0], bytearray(start[1])) if start else (4, bytearray())
    remaining = original_length - len(out)
    while remaining > 0:
        if groups is not None:
            groups.append((pos, bytes(out)))
        if pos >= end:
            raise CorruptStreamError("container truncated mid-stream")
        flags = blob[pos]
        pos += 1
        slots = 8
        while slots and remaining > 0:
            if flags & 1:
                if pos + 3 > end:
                    raise CorruptStreamError(
                        "container truncated in a match")
                length = blob[pos] + _QLZ_MIN_MATCH
                offset = ((blob[pos + 1] << 8) | blob[pos + 2]) + 1
                pos += 3
                if offset > len(out):
                    raise CorruptStreamError(
                        f"match offset {offset} exceeds produced "
                        f"output {len(out)}")
                copy_match(out, offset, length)
                remaining -= length
                flags >>= 1
                slots -= 1
                continue
            # The literals up to the group's next match (all that is
            # left of the group when no flag bit remains) are one slice.
            run = (flags & -flags).bit_length() - 1 if flags else slots
            if run > remaining:
                run = remaining
            if pos + run > end:
                raise CorruptStreamError(
                    "container truncated in a literal")
            out += blob[pos:pos + run]
            pos += run
            remaining -= run
            flags >>= run
            slots -= run
    if len(out) != original_length:
        raise CompressionError(
            f"decoded {len(out)} bytes, expected {original_length}")
    return bytes(out)


def tokenwise_lzss_decode(blob: bytes, start=None, groups=None,
                          params: LzParams = DEFAULT_PARAMS) -> bytes:
    """``bytes_to_tokens`` then ``decode_tokens`` (``LzssCodec.decode``
    before PR 20) without the token objects: one step per token, the
    same checks in the same order with the same messages.  Fusing the
    two passes changes nothing, because the parse already rejects a
    match that reaches behind the bytes produced, so expanding what it
    accepted cannot fail.  ``start`` / ``groups`` as in
    :func:`runwise_quicklz_decode`.
    """
    end = len(blob)
    if end < 4:
        raise CorruptStreamError("container shorter than its header")
    (original_length,) = struct.unpack(">I", blob[:4])
    pos, out = (start[0], bytearray(start[1])) if start else (4, bytearray())
    while len(out) < original_length:
        if groups is not None:
            groups.append((pos, bytes(out)))
        if pos >= end:
            raise CorruptStreamError("container truncated mid-stream")
        flags = blob[pos]
        pos += 1
        for bit in range(8):
            if len(out) >= original_length:
                break
            if flags & (1 << bit):
                if pos + 2 > end:
                    raise CorruptStreamError("container truncated in a match")
                hi, lo = blob[pos], blob[pos + 1]
                pos += 2
                distance = ((hi << 4) | (lo >> 4)) + 1
                if distance > len(out):
                    raise CorruptStreamError(
                        f"match reaches {distance} bytes back with only "
                        f"{len(out)} bytes produced")
                copy_match(out, distance, (lo & 0x0F) + params.min_match)
            else:
                if pos + 1 > end:
                    raise CorruptStreamError(
                        "container truncated in a literal")
                out.append(blob[pos])
                pos += 1
    if len(out) != original_length:
        raise CorruptStreamError(
            f"stream expands to {len(out)} bytes, header says "
            f"{original_length}")
    return bytes(out)


def _lzss_hash3(data: bytes, pos: int) -> int:
    return (data[pos] << 16) | (data[pos + 1] << 8) | data[pos + 2]


class ReferenceMatchFinder:
    """The pre-fast-path hash-chain finder (list chains, byte loops)."""

    def __init__(self, data: bytes, params: LzParams = DEFAULT_PARAMS):
        self.data = data
        self.params = params
        self._chains: dict[int, list[int]] = {}

    def insert(self, pos: int) -> None:
        if pos + 3 <= len(self.data):
            chain = self._chains.setdefault(_lzss_hash3(self.data, pos), [])
            chain.append(pos)
            if len(chain) > _MAX_CHAIN:
                del chain[0]

    def longest_match(self, pos: int,
                      min_start: int = 0) -> Optional[Match]:
        data, params = self.data, self.params
        limit = min(len(data) - pos, params.max_match)
        if limit < params.min_match or pos + 3 > len(data):
            return None
        window_start = max(min_start, pos - params.window)
        best_len = params.min_match - 1
        best_dist = 0
        for candidate in reversed(self._chains.get(
                _lzss_hash3(data, pos), ())):
            if candidate < window_start:
                break
            length = 0
            while (length < limit
                   and data[candidate + length] == data[pos + length]):
                length += 1
            if length > best_len:
                best_len = length
                best_dist = pos - candidate
                if length >= limit:
                    break
        if best_len >= params.min_match:
            return Match(distance=best_dist, length=best_len)
        return None


class ReferenceLzssCodec:
    """The pre-fast-path LZSS encoder (greedy or lazy parse)."""

    def __init__(self, params: LzParams = DEFAULT_PARAMS,
                 lazy: bool = False):
        self.params = params
        self.lazy = lazy

    def encode_to_tokens(self, data: bytes) -> list[Token]:
        finder = ReferenceMatchFinder(data, self.params)
        tokens: list[Token] = []
        pos = 0
        n = len(data)
        while pos < n:
            match = finder.longest_match(pos)
            if match is not None and self.lazy and pos + 1 < n:
                finder.insert(pos)
                next_match = finder.longest_match(pos + 1)
                if next_match is not None and next_match.length > match.length:
                    tokens.append(Literal(data[pos]))
                    pos += 1
                    continue
                match_here = match
            else:
                match_here = match
            if match_here is not None:
                tokens.append(match_here)
                for offset in range(match_here.length):
                    finder.insert(pos + offset)
                pos += match_here.length
            else:
                tokens.append(Literal(data[pos]))
                finder.insert(pos)
                pos += 1
        return tokens

    def encode(self, data: bytes) -> bytes:
        return tokens_to_bytes(self.encode_to_tokens(data), len(data),
                               self.params)


def reference_decode_tokens(tokens) -> bytes:
    """The pre-fast-path token expander (per-byte overlapping copies)."""
    out = bytearray()
    for token in tokens:
        if isinstance(token, Match):
            if token.distance > len(out):
                raise CorruptStreamError(
                    f"match distance {token.distance} exceeds produced "
                    f"output {len(out)}")
            start = len(out) - token.distance
            for i in range(token.length):
                out.append(out[start + i])
        else:
            out.append(token.value)
    return bytes(out)


def reference_segment_tokens(chunk: bytes, start: int, end: int,
                             params: LzParams = DEFAULT_PARAMS
                             ) -> list[Token]:
    """The pre-fast-path GPU segment search over ``chunk[start:end]``.

    The oracle for ``SegmentLzKernel``: the finder is pre-seeded with
    the window of history before the segment, then parses greedily,
    rejecting matches that overrun the segment end.
    """
    finder = ReferenceMatchFinder(chunk, params)
    for pos in range(max(0, start - params.window), start):
        finder.insert(pos)
    tokens: list[Token] = []
    pos = start
    while pos < end:
        match = finder.longest_match(pos)
        if match is not None and pos + match.length <= end:
            tokens.append(match)
            for offset in range(match.length):
                finder.insert(pos + offset)
            pos += match.length
        else:
            tokens.append(Literal(chunk[pos]))
            finder.insert(pos)
            pos += 1
    return tokens


def reference_segment_bounds(length: int, segments: int
                             ) -> list[tuple[int, int, int]]:
    """``(segment_index, start, end)`` of every non-empty segment."""
    seg_len = max(1, (length + segments - 1) // segments)
    bounds = []
    for index in range(segments):
        start = index * seg_len
        end = min(length, start + seg_len)
        if start < end:
            bounds.append((index, start, end))
    return bounds


def reference_merge_segments(chunk: bytes,
                             segments: list[tuple[int, int, list[Token]]],
                             params: LzParams = DEFAULT_PARAMS
                             ) -> list[Token]:
    """The pre-array, list-based CPU refinement (validate, stitch).

    ``segments`` holds ``(start, end, tokens)`` per segment, in order.
    Kept as the oracle for ``refine_to_container``: the refined blob must
    equal ``tokens_to_bytes(reference_merge_segments(...))``.
    """
    expected_start = 0
    for start, end, tokens in segments:
        if start != expected_start:
            raise CompressionError(
                f"segment starts at {start}, expected {expected_start}")
        span = token_output_length(tokens)
        if span != end - start:
            raise CompressionError(
                f"segment tokens expand to {span} bytes, "
                f"span is {end - start}")
        position = start
        for token in tokens:
            if isinstance(token, Match):
                token.validate(params)
                if token.distance > position:
                    raise CompressionError(
                        f"match at {position} reaches "
                        f"{token.distance} bytes back")
                position += token.length
            else:
                position += 1
        expected_start = end
    if expected_start != len(chunk):
        raise CompressionError(
            f"segments cover {expected_start} bytes of a "
            f"{len(chunk)}-byte chunk")
    return [token for _start, _end, tokens in segments for token in tokens]
