"""Shared LZ machinery: parameters, tokens, and the canonical container.

All LZ paths in the library (serial LZSS, the GPU segment-parallel path
after post-processing) produce the same *token* representation — a list of
:class:`Literal` and :class:`Match` — and the same serialized container,
so one decoder handles every producer.  That mirrors the paper's design:
the GPU emits raw match candidates and the CPU refines them into the same
stream format the storage system already understands.

Container format (big-endian)::

    [u32 original_length][flag/token stream ...]

Token stream: groups of up to 8 tokens share one flags byte; bit i of the
flags byte (LSB first) is 1 for a match, 0 for a literal.  A literal is
one raw byte.  A match is two bytes: ``dddddddd dddd llll`` — a 12-bit
backward distance (1-based) and a 4-bit length encoding ``length -
min_match``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from repro.errors import CompressionError, CorruptStreamError


@dataclass(frozen=True)
class LzParams:
    """Window geometry shared by every LZ path."""

    window: int = 4096
    min_match: int = 3
    max_match: int = 18

    def __post_init__(self) -> None:
        if self.window < 2 or self.window > 4096:
            raise CompressionError(
                f"window must be in [2, 4096] for 12-bit distances, "
                f"got {self.window}")
        if self.min_match < 2:
            raise CompressionError(f"min_match too small: {self.min_match}")
        if self.max_match < self.min_match:
            raise CompressionError("max_match < min_match")
        if self.max_match - self.min_match > 15:
            raise CompressionError(
                "match length range exceeds the 4-bit length field")


DEFAULT_PARAMS = LzParams()


# -- data-plane fast-path primitives (DESIGN.md §9) -------------------------

def key3_array(data: bytes) -> list[int]:
    """Rolling 24-bit keys: ``keys[i] = data[i]<<16 | data[i+1]<<8 | data[i+2]``.

    The shared per-chunk hash array of the data-plane fast path: computed
    once per chunk and reused by every LZSS match finder over that chunk.
    A single zip-slice comprehension beats per-position indexing by ~1.7x
    in CPython.
    """
    if len(data) < 3:
        return []
    keys = [(a << 16) | (b << 8) | c
            for a, b, c in zip(data, data[1:], data[2:])]
    return keys


def common_prefix_length(data: bytes, a: int, b: int, limit: int) -> int:
    """Longest common prefix of ``data[a:]`` and ``data[b:]``, capped.

    Byte-identical to the naive ``while data[a+i] == data[b+i]`` scan the
    fast path replaced.  Short prefixes (the common case when a hash
    candidate fizzles) stay on an inline byte scan; once eight bytes
    agree, the rest of both spans is compared whole (a match that runs
    to the cap is the common case on the GPU path) and otherwise read as
    two big-endian integers, whose XOR has its top set bit in the first
    byte that differs.
    Overlapping ranges are fine — both reads see the same immutable
    buffer, so prefix equality is still plain byte equality.
    """
    if limit <= 0:
        return 0
    scan = 8 if limit > 8 else limit
    length = 0
    # The audited per-byte exception REP502 points everyone else at:
    # bounded to 8 bytes, it beats slice setup for the short prefixes
    # that dominate fizzled hash candidates.
    while length < scan and data[a + length] == data[b + length]:  # repro-lint: disable=REP502
        length += 1
    if length < scan or length == limit:
        return length
    ours = data[a + length:a + limit]
    theirs = data[b + length:b + limit]
    if ours == theirs:
        return limit
    differ = int.from_bytes(ours, "big") ^ int.from_bytes(theirs, "big")
    return limit - ((differ.bit_length() + 7) >> 3)


def common_prefix_length_pair(abuf: bytes, a: int, bbuf: bytes, b: int,
                              limit: int) -> int:
    """Longest common prefix of ``abuf[a:]`` and ``bbuf[b:]``, capped.

    The cross-buffer sibling of :func:`common_prefix_length`, for scans
    that extend a match between *two* buffers (the delta codec's
    reference/target walk).  Same structure: inline head scan for the
    short prefixes that dominate, then one whole-span compare and one
    integer XOR over the rest.
    """
    if limit <= 0:
        return 0
    scan = 8 if limit > 8 else limit
    length = 0
    # The same audited per-byte head scan as common_prefix_length.
    while length < scan and abuf[a + length] == bbuf[b + length]:  # repro-lint: disable=REP502
        length += 1
    if length < scan or length == limit:
        return length
    ours = abuf[a + length:a + limit]
    theirs = bbuf[b + length:b + limit]
    if ours == theirs:
        return limit
    differ = int.from_bytes(ours, "big") ^ int.from_bytes(theirs, "big")
    return limit - ((differ.bit_length() + 7) >> 3)


def copy_match(out: bytearray, distance: int, length: int) -> None:
    """Append ``length`` bytes from ``distance`` back onto ``out``.

    Byte-identical to the per-byte ``out.append(out[start + i])`` loop
    for every distance/length combination — an overlapping copy is a
    periodic extension with period ``distance``, which slice replication
    reproduces exactly — but runs as a handful of C-level copies.
    """
    start = len(out) - distance
    if distance >= length:
        out += out[start:start + length]
        return
    period = out[start:]
    reps, rem = divmod(length, distance)
    out += period * reps
    if rem:
        out += period[:rem]


#: ``_GROUP_STEP[width][flags]``: bytes a whole group occupies — its flags
#: byte, eight tokens, ``width - 1`` more per match.
_GROUP_STEP = tuple(bytes(9 + (width - 1) * bin(flags).count("1")
                          for flags in range(256)) for width in range(4))


def decode_grouped(blob: bytes, width: int,
                   fields: Callable[[np.ndarray],
                                    tuple[np.ndarray, np.ndarray]],
                   too_far: str) -> tuple[bytes, int]:
    """Expand a grouped container: ``(plaintext, declared length)``.

    The decoder of both containers: ``[u32 length]``, then groups of up
    to 8 tokens behind a flags byte — a literal one byte, a match
    ``width`` bytes, which ``fields`` turns, one big-endian word per
    match, into ``(lengths, offsets)``.  Only the copy per *match* is
    sequential (DESIGN.md §9).  Bytes past the declared length are
    ignored; a last match that overshoots it is left to the caller.
    """
    blob = bytes(blob)
    end = len(blob)
    if end < 4:
        raise CorruptStreamError("container shorter than its header")
    original_length = int.from_bytes(blob[:4], "big")
    steps = blob.translate(_GROUP_STEP[width])
    mark = bytearray(end)
    pos = 4
    while pos < end:
        mark[pos] = 1
        pos += steps[pos]
    # Minus header and flags: the literals between two matches, one slice.
    raw = np.frombuffer(blob, dtype=np.uint8)
    is_flag = np.frombuffer(mark, dtype=bool)
    stream = raw[4:][~is_flag[4:]].tobytes()
    size = len(stream)
    # Token index of every match: its fields sit ``width - 1`` bytes on
    # per earlier match, its copy behind all earlier literals and copies.
    slot = np.unpackbits(raw[is_flag], bitorder="little").nonzero()[0]
    index = np.arange(len(slot))
    field = slot + (width - 1) * index
    words = np.ndarray((size + 1,), ">u4", stream + b"\0\0\0\0", 0, (1,))
    lengths, offsets = fields(
        (words.take(field, mode="clip") >> (32 - 8 * width)).astype(np.intp))
    before = slot - index + lengths.cumsum() - lengths
    # Expanded: matches below the declared length with all their fields.
    whole = min(int(before.searchsorted(original_length)),
                int(field.searchsorted(size - width, "right")))
    far = offsets[:whole] > before[:whole]
    if far.any():
        bad = far.argmax()
        raise CorruptStreamError(too_far.format(offsets[bad], before[bad]))
    source = before - offsets
    out, taken = bytearray(), 0
    for at, length, offset, start, stop in zip(
            field[:whole].tolist(), lengths.tolist(), offsets.tolist(),
            source.tolist(), (source + lengths).tolist()):
        out += stream[taken:at]
        if offset >= length:
            out += out[start:stop]
        else:
            copy_match(out, offset, length)
        taken = at + width
    # The literal tail ends at the first match the blob cuts short.
    cut = int(field[whole]) if whole < len(field) else size + 1
    need = max(original_length - len(out), 0)
    out += stream[taken:min(cut, taken + need)]
    if len(out) < original_length:
        raise CorruptStreamError("container truncated " + (
            "in a match" if cut <= size
            else "mid-stream" if pos == end else "in a literal"))
    return bytes(out), original_length


@dataclass(frozen=True)
class Literal:
    """A single uncompressed byte."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 255:
            raise CompressionError(f"invalid literal byte {self.value}")


@dataclass(frozen=True)
class Match:
    """A backward reference: copy ``length`` bytes from ``distance`` back."""

    distance: int
    length: int

    def validate(self, params: LzParams) -> None:
        """Raise unless the match fits the container's bit fields."""
        if not 1 <= self.distance <= params.window:
            raise CompressionError(f"match distance {self.distance} "
                                   f"outside window {params.window}")
        if not params.min_match <= self.length <= params.max_match:
            raise CompressionError(f"match length {self.length} outside "
                                   f"[{params.min_match}, {params.max_match}]")


Token = Union[Literal, Match]
