"""CPU post-processing of raw GPU compression output (paper §3.2(2)-(3)).

The GPU returns unrefined token arrays; "the CPU must refine the
results".  The unit of refinement is the kernel's search tile
(:class:`~repro.gpu.kernels.lz.LzTile`: up to 64 chunks' tokens in three
flat arrays), and :func:`refine_tile` does each step for all of a tile's
chunks at once (DESIGN.md §9):

1. validate, as whole-tile array predicates, that every thread's tokens
   tile its segment and the segments their chunk, and that every match
   stays inside the window, its own chunk and the container's fields (a
   seam match may reach into the previous segment — legal, the
   sequential decoder has full history by then);
2. pack every container of the tile into one buffer, sliced per chunk.

:func:`compress_payloads` is the search plus this refinement, and every
LZSS container in the library comes from it: the GPU codec's queue task
(eight segments per chunk) and :class:`~repro.compression.lzss.LzssCodec`
(one segment: the serial greedy parse).

There is no seam repair: a match the kernel keeps ended at a mismatch,
the cap or the chunk's end, so no seam has anything to absorb.

Each container decodes with the ordinary
:class:`~repro.compression.lzss.LzssCodec` decoder, which is the whole
point: downstream storage never knows whether a chunk was compressed by
the CPU or the GPU.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.compression.lz_common import (
    DEFAULT_PARAMS,
    LzParams,
)
from repro.errors import CompressionError
from repro.gpu.kernels.lz import SEGMENTS_PER_CHUNK, LzTile, SegmentLzKernel

_HEADER = 4     # container header: the chunk's length, big-endian


def _check_tiling(tile: LzTile, cuts: np.ndarray) -> None:
    """Raise unless segments tile their chunks and tokens their segments.

    Chunks are adjacent in tile coordinates, so every thread's tokens
    expand to exactly its span iff each segment starts where the one
    before it (or its chunk) does and the last ends with the chunk, each
    token starts where its predecessor ends, every busy thread's first
    token sits at its segment's start and the last token ends the tile.
    """
    starts, lengths = tile.starts, tile.lengths
    edges, seg_start = tile.edges, tile.seg_start
    if not len(starts) == len(lengths) == len(tile.distances) == cuts[-1]:
        raise CompressionError(
            f"token arrays disagree in length: {cuts[-1]} counted, "
            f"{len(starts)}/{len(lengths)}/{len(tile.distances)} held")
    busy = np.flatnonzero(tile.counts)
    if not (np.array_equal(seg_start[:, 0], edges[:-1])
            and np.array_equal(seg_start[:, 1:], tile.seg_end[:, :-1])
            and np.array_equal(tile.seg_end[:, -1], edges[1:])
            and (starts[-1] + lengths[-1] if len(starts) else 0) == edges[-1]
            and np.array_equal(starts[(cuts - tile.counts)[busy]],
                               seg_start.ravel()[busy])
            and np.array_equal(starts[1:], starts[:-1] + lengths[:-1])):
        _raise_tiling_error(tile, cuts)


def _raise_tiling_error(tile: LzTile, cuts: np.ndarray) -> None:
    """Name the first segment that breaks the tiling (chunk-relative)."""
    starts, lengths = tile.starts, tile.lengths
    n_segments = tile.seg_start.shape[1]
    edges = tile.edges.tolist()
    begins, stops = tile.seg_start.tolist(), tile.seg_end.tolist()
    for offset, end, chunk_begins, chunk_stops in zip(
            edges, edges[1:], begins, stops):
        expected = offset
        for segment, begin in enumerate(chunk_begins):
            if begin != expected:
                raise CompressionError(
                    f"segment {segment} starts at {begin - offset}, "
                    f"expected {expected - offset}")
            expected = chunk_stops[segment]
        if expected != end:
            raise CompressionError(
                f"segments cover {expected - offset} bytes of a "
                f"{end - offset}-byte chunk")
    for thread, (hi, count) in enumerate(zip(cuts.tolist(),
                                             tile.counts.tolist())):
        chunk, segment = divmod(thread, n_segments)
        begin, stop = begins[chunk][segment], stops[chunk][segment]
        at, size = starts[hi - count:hi], lengths[hi - count:hi]
        span = int(size.sum())
        if span != stop - begin:
            raise CompressionError(
                f"segment {segment} tokens expand to {span} bytes, "
                f"span is {stop - begin}")
        if span and (at[0] != begin
                     or not np.array_equal(at[1:], at[:-1] + size[:-1])):
            raise CompressionError(
                f"segment {segment} token positions do not follow its "
                f"token lengths")
    raise CompressionError("segment tokens do not tile the chunk")


def _check_matches(tile: LzTile, is_match: np.ndarray, matches: np.ndarray,
                   params: LzParams) -> None:
    """Raise unless every raw token fits the window, chunk and fields."""
    reach = tile.distances[matches]
    outside = (reach < 1) | (reach > params.window)
    if outside.any():
        raise CompressionError(
            f"match distance {int(reach[outside][0])} "
            f"outside window {params.window}")
    _check_match_lengths(tile.lengths[matches], params)
    at = tile.starts[matches]
    at = at - tile.edges[np.searchsorted(tile.edges, at, side="right") - 1]
    early = reach > at
    if early.any():
        raise CompressionError(
            f"match at {int(at[early][0])} reaches "
            f"{int(reach[early][0])} bytes back")
    # A zero distance marks a literal, which covers exactly one byte.
    wide = np.flatnonzero(tile.lengths != 1)
    wide = wide[~is_match[wide]]
    if wide.size:
        raise CompressionError(
            f"literal token covers {int(tile.lengths[wide[0]])} bytes")


def _check_match_lengths(match_lengths: np.ndarray,
                         params: LzParams) -> None:
    """Raise unless every match length fits the container's field."""
    unfit = ((match_lengths < params.min_match)
             | (match_lengths > params.max_match))
    if unfit.any():
        raise CompressionError(
            f"match length {int(match_lengths[unfit][0])} outside "
            f"[{params.min_match}, {params.max_match}]")


def _pack(tile: LzTile, firsts: np.ndarray, starts: np.ndarray,
          lengths: np.ndarray, distances: np.ndarray, is_match: np.ndarray,
          matches: np.ndarray, params: LzParams) -> list[bytes]:
    """Lay every chunk's token stream out as its canonical container.

    Each is the canonical container
    (:mod:`~repro.compression.lzss`): after the
    header a flags byte opens every group of up to eight tokens, a
    literal is one byte and a match two.  Chunk ``c`` owns tokens
    ``[firsts[c], firsts[c + 1])``; padded to whole groups, its ``j``-th
    token takes slot ``8 G + j`` (``G`` groups in the chunks before it),
    so ``slot >> 3`` counts the flags bytes opened so far in the tile,
    ``slot & 7 == 0`` marks a group's first token and one ``packbits``
    over the slots makes every flags byte.
    """
    count = np.diff(firsts)
    groups = -(-count // 8)
    groups_before = np.cumsum(groups) - groups
    before = np.cumsum(is_match, dtype=np.intp)   # matches before a token
    before -= is_match
    match_edges = np.append(before, len(matches))[firsts]
    sizes = _HEADER + groups + count + np.diff(match_edges)
    bases = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=bases[1:])
    out = np.empty(bases[-1], dtype=np.uint8)
    header = np.diff(tile.edges).astype(">u4").view(np.uint8)
    out[(bases[:-1, None] + np.arange(_HEADER)).ravel()] = header
    if len(starts):
        slot = np.arange(len(starts)) + np.repeat(
            8 * groups_before - firsts[:-1], count)
        at = slot + (slot >> 3) + before + np.repeat(
            bases[:-1] + _HEADER + 1 - 9 * groups_before - match_edges[:-1],
            count)
        bits = np.zeros(8 * int(groups.sum()), dtype=bool)
        bits[slot] = is_match
        out[at[(slot & 7) == 0] - 1] = np.packbits(bits, bitorder="little")
        # Every slot first takes its chunk byte (right for literals); the
        # match slots are then overwritten with their two field bytes.
        out[at] = np.frombuffer(tile.data, dtype=np.uint8)[starts]
        match_at = at[matches]
        reach = distances[matches] - 1          # 1-based -> 12 bits
        out[match_at] = reach >> 4
        out[match_at + 1] = ((reach & 0x0F) << 4) \
            | (lengths[matches] - params.min_match)
    blob = out.tobytes()
    bases = bases.tolist()
    return [blob[lo:hi] for lo, hi in zip(bases, bases[1:])]


def refine_tile(tile: LzTile,
                params: LzParams = DEFAULT_PARAMS) -> list[bytes]:
    """Full post-processing of one tile: a container per chunk."""
    n_segments = tile.seg_start.shape[1]
    cuts = np.cumsum(tile.counts)   # thread t's tokens end at cuts[t]
    _check_tiling(tile, cuts)
    starts, lengths, distances = tile.starts, tile.lengths, tile.distances
    is_match = distances != 0
    matches = np.flatnonzero(is_match)
    _check_matches(tile, is_match, matches, params)
    # Chunk c's tokens are [firsts[c], firsts[c + 1]).
    firsts = np.append(0, cuts[n_segments - 1::n_segments])
    return _pack(tile, firsts, starts, lengths, distances, is_match,
                 matches, params)


def compress_payloads(payloads: Sequence[bytes],
                      segments_per_chunk: int = SEGMENTS_PER_CHUNK,
                      params: LzParams = DEFAULT_PARAMS
                      ) -> tuple[list[bytes], dict[str, int]]:
    """The segment-LZ search over ``payloads``, a tile at a time, and
    each tile's refinement: a container per payload, in order, and the
    search's :data:`~repro.gpu.kernels.lz.LZ_CENSUS` counts.  The GPU
    codec's queue task; at one segment it is the serial greedy parse."""
    launch = SegmentLzKernel(payloads, segments_per_chunk, params).execute()
    return ([blob for tile in launch.tiles
             for blob in refine_tile(tile, params)],
            launch.census)
