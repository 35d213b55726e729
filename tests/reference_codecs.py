"""Pre-fast-path reference implementations of the data-plane hot loops.

These are the byte-at-a-time encoders/decoders exactly as they existed
before the data-plane fast path (shared key array, integer-XOR match
extension, slice copy-out, the array QuickLZ parse) replaced their inner
loops.  They are kept
in-tree as *executable specifications*: ``test_dataplane_equivalence``
asserts the production codecs emit byte-identical streams on an
adversarial corpus, and round-trips each stream through both decoder
generations.

The token-object view of the canonical LZSS container lives here too:
:func:`tokens_to_bytes`, :func:`bytes_to_tokens` and
:func:`decode_tokens` serialize, parse and expand ``Literal``/``Match``
lists one token at a time — the oracles the fused ``LzssCodec`` encoder
and the grouped decoder must agree with — and :func:`refine_to_container`
lines hand-built per-segment outputs up as a one-chunk tile for
``refine_tile``.

Deliberately slow — do not import from production code.
"""

from __future__ import annotations

import struct
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.compression.lz_common import (
    DEFAULT_PARAMS,
    Literal,
    LzParams,
    Match,
    Token,
    copy_match,
)
from repro.compression.postprocess import refine_tile
from repro.errors import CompressionError, CorruptStreamError
from repro.gpu.kernels.lz import LzTile, SegmentOutput

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


def token_output_length(tokens: Iterable[Token]) -> int:
    """Plaintext bytes the token sequence expands to."""
    total = 0
    for token in tokens:
        total += token.length if isinstance(token, Match) else 1
    return total


def tokens_to_bytes(tokens: list[Token], original_length: int,
                    params: LzParams = DEFAULT_PARAMS) -> bytes:
    """Serialize a token list into the canonical container."""
    if original_length != token_output_length(tokens):
        raise CompressionError(
            f"token stream expands to {token_output_length(tokens)} bytes "
            f"but header claims {original_length}")
    out = bytearray(struct.pack(">I", original_length))
    for group_start in range(0, len(tokens), 8):
        group = tokens[group_start:group_start + 8]
        flags = 0
        body = bytearray()
        for bit, token in enumerate(group):
            if isinstance(token, Match):
                token.validate(params)
                flags |= 1 << bit
                distance = token.distance - 1          # 1-based -> 12 bits
                length = token.length - params.min_match
                body.append((distance >> 4) & 0xFF)
                body.append(((distance & 0x0F) << 4) | (length & 0x0F))
            else:
                body.append(token.value)
        out.append(flags)
        out.extend(body)
    return bytes(out)


def bytes_to_tokens(blob: bytes,
                    params: LzParams = DEFAULT_PARAMS) -> tuple[list[Token], int]:
    """Parse the canonical container back into (tokens, original_length)."""
    if len(blob) < 4:
        raise CorruptStreamError("container shorter than its header")
    (original_length,) = struct.unpack(">I", blob[:4])
    tokens: list[Token] = []
    produced = 0
    pos = 4
    while produced < original_length:
        if pos >= len(blob):
            raise CorruptStreamError("container truncated mid-stream")
        flags = blob[pos]
        pos += 1
        for bit in range(8):
            if produced >= original_length:
                break
            if flags & (1 << bit):
                if pos + 2 > len(blob):
                    raise CorruptStreamError("container truncated in a match")
                hi, lo = blob[pos], blob[pos + 1]
                pos += 2
                distance = ((hi << 4) | (lo >> 4)) + 1
                length = (lo & 0x0F) + params.min_match
                if distance > produced:
                    raise CorruptStreamError(
                        f"match reaches {distance} bytes back with only "
                        f"{produced} bytes produced")
                tokens.append(Match(distance, length))
                produced += length
            else:
                if pos + 1 > len(blob):
                    raise CorruptStreamError(
                        "container truncated in a literal")
                tokens.append(Literal(blob[pos]))
                pos += 1
                produced += 1
    if produced != original_length:
        raise CorruptStreamError(
            f"stream expands to {produced} bytes, header says "
            f"{original_length}")
    return tokens, original_length


def decode_tokens(tokens: Iterable[Token]) -> bytes:
    """Expand a token sequence into plaintext."""
    out = bytearray()
    for token in tokens:
        if isinstance(token, Match):
            if token.distance > len(out):
                raise CorruptStreamError(
                    f"match distance {token.distance} exceeds produced "
                    f"output {len(out)}")
            # Overlapping copies expand as a periodic extension; copy_match
            # reproduces the per-byte semantics with slice copies.
            copy_match(out, token.distance, token.length)
        else:
            out.append(token.value)
    return bytes(out)


def refine_to_container(chunk: bytes, outputs: Sequence[SegmentOutput],
                        params: LzParams = DEFAULT_PARAMS) -> bytes:
    """:func:`~repro.compression.postprocess.refine_tile` for one
    chunk's list of segment outputs.

    The adapter for callers that hold (or hand-build) per-segment views:
    it lines them up as a one-chunk tile, one thread per output.
    """
    ordered = sorted(outputs, key=lambda out: out.segment_index)
    for out in ordered:
        if not len(out.positions) == len(out.lengths) == len(out.distances):
            raise CompressionError(
                f"segment {out.segment_index} token arrays disagree "
                f"in length")
    # No outputs at all (an empty chunk's launch) is one idle thread.
    none = [np.zeros(0, dtype=np.int32)]
    tile = LzTile(
        first=0, chunks=[chunk], data=chunk,
        edges=np.array([0, len(chunk)]),
        seg_start=np.array([[out.start for out in ordered] or [0]]),
        seg_end=np.array([[out.end for out in ordered] or [0]]),
        counts=np.array([len(out.positions) for out in ordered] or [0]),
        starts=np.concatenate(none + [out.positions for out in ordered]),
        lengths=np.concatenate(none + [out.lengths for out in ordered]),
        distances=np.concatenate(none + [out.distances for out in ordered]))
    return refine_tile(tile, params)[0]
