"""CPU post-processing of raw GPU compression output (paper §3.2(2)-(3)).

The GPU returns unrefined per-segment token arrays; "the CPU must refine
the results".  Refinement here means what it meant on the testbed:

1. validate that the segments tile the chunk exactly and that every match
   stays inside the backward window (seam matches reach into the previous
   segment's overlap region — legal, because the sequential decoder has
   full history by the time it gets there);
2. stitch the per-segment token arrays into one stream;
3. repair the seams: a segment thread must clamp its final match at its
   own boundary (the right neighbour's parse is not final while it runs),
   so the CPU extends seam-straddling matches into the next segment's
   leading literals;
4. pack the stream into the canonical LZSS container.

Every step works on the kernel's ``positions/lengths/distances`` arrays
(DESIGN.md §9): the checks are array predicates, the seam repair touches
at most one token per seam, and the container is laid out with one
``cumsum`` and one ``packbits``.  The result decodes with the ordinary
:class:`~repro.compression.lzss.LzssCodec` decoder, which is the whole
point: downstream storage never knows whether a chunk was compressed by
the CPU or the GPU.
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence

import numpy as np

from repro.compression.lz_common import (
    DEFAULT_PARAMS,
    LzParams,
    common_prefix_length,
)
from repro.errors import CompressionError
from repro.gpu.kernels.lz import SegmentOutput


def _stitch(ordered: Sequence[SegmentOutput], chunk_length: int
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Concatenate segment arrays, raising unless they tile the chunk.

    Returns ``(positions, lengths, distances, firsts)``; ``firsts[k]`` is
    the stream index of segment ``k``'s first token, with one trailing
    entry for the token count.
    """
    expected_start = 0
    firsts = [0]
    for out in ordered:
        if out.start != expected_start:
            raise CompressionError(
                f"segment {out.segment_index} starts at {out.start}, "
                f"expected {expected_start}")
        if not len(out.positions) == len(out.lengths) == len(out.distances):
            raise CompressionError(
                f"segment {out.segment_index} token arrays disagree "
                f"in length")
        expected_start = out.end
        firsts.append(firsts[-1] + len(out.positions))
    if expected_start != chunk_length:
        raise CompressionError(
            f"segments cover {expected_start} bytes of a "
            f"{chunk_length}-byte chunk")
    if firsts[-1] == 0:
        if chunk_length:
            _raise_span_error(ordered)
        empty = np.zeros(0, dtype=np.int32)
        return empty, empty, empty, firsts
    positions = np.concatenate([out.positions for out in ordered])
    lengths = np.concatenate([out.lengths for out in ordered])
    distances = np.concatenate([out.distances for out in ordered])
    # Every segment's tokens expand to exactly its span iff each token
    # starts where its predecessor ends, the first token of every
    # segment sits at the segment's start, and the last token ends at
    # the chunk length (the segment spans are chained above).
    heads = [first for first, after in zip(firsts, firsts[1:])
             if after > first]
    starts = [out.start for out in ordered if len(out.positions)]
    if (positions[-1] + lengths[-1] != chunk_length
            or (positions[heads] != starts).any()
            or not np.array_equal(positions[1:],
                                  positions[:-1] + lengths[:-1])):
        _raise_span_error(ordered)
    return positions, lengths, distances, firsts


def _raise_span_error(ordered: Sequence[SegmentOutput]) -> None:
    """Name the first segment whose tokens do not cover its span."""
    for out in ordered:
        span = int(out.lengths.sum())
        if span != out.end - out.start:
            raise CompressionError(
                f"segment {out.segment_index} tokens expand to {span} "
                f"bytes, span is {out.end - out.start}")
        follows = out.positions[:-1] + out.lengths[:-1]
        if span and (out.positions[0] != out.start
                     or not np.array_equal(out.positions[1:], follows)):
            raise CompressionError(
                f"segment {out.segment_index} token positions do not "
                f"follow its token lengths")
    raise CompressionError("segment tokens do not tile the chunk")


def _check_matches(positions: np.ndarray, lengths: np.ndarray,
                   distances: np.ndarray, is_match: np.ndarray,
                   params: LzParams) -> None:
    """Raise unless every raw token fits the window, chunk and fields."""
    reach = distances[is_match]
    outside = (reach < 1) | (reach > params.window)
    if outside.any():
        raise CompressionError(
            f"match distance {int(reach[outside][0])} "
            f"outside window {params.window}")
    _check_match_lengths(lengths[is_match], params)
    early = reach > positions[is_match]
    if early.any():
        raise CompressionError(
            f"match at {int(positions[is_match][early][0])} reaches "
            f"{int(reach[early][0])} bytes back")
    # A zero distance marks a literal, which covers exactly one byte.
    literal_lengths = lengths[~is_match]
    if (literal_lengths != 1).any():
        raise CompressionError(
            f"literal token covers "
            f"{int(literal_lengths[literal_lengths != 1][0])} bytes")


def _check_match_lengths(match_lengths: np.ndarray,
                         params: LzParams) -> None:
    """Raise unless every match length fits the container's field."""
    unfit = ((match_lengths < params.min_match)
             | (match_lengths > params.max_match))
    if unfit.any():
        raise CompressionError(
            f"match length {int(match_lengths[unfit][0])} outside "
            f"[{params.min_match}, {params.max_match}]")


def _repair_seams(chunk: bytes, ordered: Sequence[SegmentOutput],
                  lengths: np.ndarray, distances: np.ndarray,
                  is_match: np.ndarray, firsts: list[int],
                  params: LzParams, stats: Optional[dict]
                  ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Extend matches clamped at a seam into the next leading literals.

    Returns the grown copy of ``lengths`` and the mask of surviving
    tokens (None when no literal was absorbed).  Absorbable bytes are
    capped three ways: the run of leading literals, the room left in the
    match's length field, and how far the periodic extension actually
    keeps matching (one :func:`common_prefix_length` scan).
    """
    # Leading literals of each later segment: tokens before its first
    # match, or all of them.
    matches = np.flatnonzero(is_match)
    heads = np.array(firsts[1:-1])
    first_match = np.append(matches, firsts[-1])[
        np.searchsorted(matches, heads)]
    leads = (np.minimum(first_match, firsts[2:]) - heads).tolist()
    max_match = params.max_match
    grown = lengths.copy()
    keep = None
    tail = firsts[1] - 1    # the merged stream's last token so far
    for out, head, after, lead in zip(ordered[1:], firsts[1:], firsts[2:],
                                      leads):
        if after == head:
            continue
        absorbed = 0
        if lead and tail >= 0 and is_match[tail] \
                and grown[tail] < max_match:
            tail_length = int(grown[tail])
            absorbed = common_prefix_length(
                chunk, out.start - int(distances[tail]), out.start,
                min(lead, max_match - tail_length))
            if absorbed:
                if keep is None:
                    keep = np.ones(len(grown), dtype=bool)
                keep[head:head + absorbed] = False
                grown[tail] = tail_length + absorbed
                if stats is not None:
                    stats["seams_extended"] = \
                        stats.get("seams_extended", 0) + 1
                    stats["seam_bytes_absorbed"] = \
                        stats.get("seam_bytes_absorbed", 0) + absorbed
        if absorbed < after - head:
            tail = after - 1
        # else the segment was swallowed whole: the grown match is still
        # the tail and may grow again across the next seam.
    return grown, keep


def _pack(chunk: bytes, positions: np.ndarray, lengths: np.ndarray,
          distances: np.ndarray, is_match: np.ndarray,
          params: LzParams) -> bytes:
    """Lay the token stream out as the canonical container.

    Byte-identical to :func:`~repro.compression.lz_common.tokens_to_bytes`:
    a flags byte opens every group of up to eight tokens, a literal is
    one byte and a match two, so token ``i`` lands ``i`` bytes plus one
    per earlier match plus one per opened group after the header.
    """
    header = struct.pack(">I", len(chunk))
    count = len(positions)
    if count == 0:
        return header
    index = np.arange(count)
    matches = np.flatnonzero(is_match)
    at = len(header) + 1 + (index >> 3) + index \
        + np.cumsum(is_match) - is_match
    out = np.empty(len(header) + -(-count // 8) + count + len(matches),
                   dtype=np.uint8)
    out[:len(header)] = np.frombuffer(header, dtype=np.uint8)
    out[at[::8] - 1] = np.packbits(is_match, bitorder="little")
    # Every slot first takes its chunk byte (right for literals); the
    # match slots are then overwritten with their two field bytes.
    out[at] = np.frombuffer(chunk, dtype=np.uint8)[positions]
    match_at = at[matches]
    reach = distances[matches] - 1              # 1-based -> 12 bits
    out[match_at] = reach >> 4
    out[match_at + 1] = ((reach & 0x0F) << 4) \
        | (lengths[matches] - params.min_match)
    return out.tobytes()


def refine_to_container(chunk: bytes, outputs: Sequence[SegmentOutput],
                        params: LzParams = DEFAULT_PARAMS,
                        repair_seams: bool = True,
                        stats: Optional[dict] = None) -> bytes:
    """Full post-processing: validate, repair seams, pack the container.

    ``stats``, when given, accumulates refinement observability:
    ``seams_extended`` (matches grown across a boundary) and
    ``seam_bytes_absorbed`` (literals they swallowed).
    """
    ordered = sorted(outputs, key=lambda out: out.segment_index)
    positions, lengths, distances, firsts = _stitch(ordered, len(chunk))
    is_match = distances != 0
    _check_matches(positions, lengths, distances, is_match, params)
    if repair_seams and len(ordered) > 1:
        lengths, keep = _repair_seams(chunk, ordered, lengths, distances,
                                      is_match, firsts, params, stats)
        if keep is not None:
            positions, lengths, distances, is_match = (
                positions[keep], lengths[keep], distances[keep],
                is_match[keep])
            # What the packer is handed must still fit the fields and
            # expand to the length the header claims.
            _check_match_lengths(lengths[is_match], params)
            expands_to = int(lengths.sum())
            if expands_to != len(chunk):
                raise CompressionError(
                    f"token stream expands to {expands_to} bytes "
                    f"but header claims {len(chunk)}")
    return _pack(chunk, positions, lengths, distances, is_match, params)
