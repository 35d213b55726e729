"""Segment-parallel LZ match-search kernel (paper §3.2(2)).

Ozsoy et al.'s GPU LZ assumes inputs large enough to feed the whole
device; a 4 KiB storage chunk is not.  The paper's answer — implemented
here — is to compress *many chunks at once* and to put *multiple threads
on each chunk*: the chunk is cut into segments, every thread runs an LZ
match search over its own segment, and adjacent threads overlap by the
history-window size so matches may reach back across the segment seam.

The kernel's output is deliberately *raw*: every thread's tokens, not
yet one valid stream per chunk ("The GPU's compression results are not
refined in GPU due to performance issues").  A launch hands back an
:class:`LzLaunch` — per search tile, three flat token arrays, per-thread
token counts and the chunk and segment bounds (:class:`LzTile`) — which
:mod:`repro.compression.postprocess` refines a tile at a time.

Two kernel classes share one cost model:

* :class:`SegmentLzKernel` — the search itself: really searches matches,
  a tile of chunks at a time as one array problem (DESIGN.md §9),
  emitting exactly the tokens a per-segment greedy parse under the one
  chain rule would (its oracle is ``tests/reference_codecs.py``).  It
  is the library's only LZSS parse:
  :func:`~repro.compression.postprocess.compress_payloads` runs it and
  refines its tiles, for the GPU codec's queue task and, at one segment
  per buffer, for :class:`~repro.compression.lzss.LzssCodec`.
* :class:`DescriptorLzKernel` — what the pipeline launches: priced from
  the chunk sizes alone, it returns synthetic output sizes from the
  workload's compression ratio (descriptor mode); a payload launch's
  containers come from the codec queue instead.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.compression.lz_common import (
    DEFAULT_PARAMS,
    MAX_CHAIN,
    LzParams,
    common_prefix_length,
)
from repro.errors import KernelError
from repro.gpu.costs import DEFAULT_GPU_COSTS
from repro.gpu.kernel import Kernel, KernelCost

#: Chunks searched per array pass: one segment thread each, all walking
#: in lockstep, so a round's ~70 numpy calls are paid once per tile.  64
#: beat 32 on 20 of 20 interleaved pairs (-11 % kernel time) and tied
#: with 128, whose per-position arrays (sort keys, candidates, steps)
#: cost 8 MB more peak RSS (DESIGN.md §9).
_TILE_CHUNKS = 64
#: Bytes in the rolling key: every candidate agrees on at least these.
_KEY_BYTES = 3
#: The walk's census counters on a :class:`SegmentLzKernel`.
LZ_CENSUS = ("rounds", "candidate_visits", "open_visits",
             "closed_by_trigram", "closed_by_second", "scalar_scans")
#: Segment threads per chunk: the paper's launch geometry, and the only
#: one the pipeline's GPU compressor and descriptor mode use.
SEGMENTS_PER_CHUNK = 8
#: Positions are int32, and so are the segment bounds on the way to
#: them, which reach up to ``segments - 1`` past the tile's last byte:
#: a tile's bytes plus its segment count must stay below this.
_POSITION_LIMIT = 1 << 31


class _LzPricing(Kernel):
    """The cost model both LZ kernels share: a launch of ``chunk_sizes``
    chunks, ``segments_per_chunk`` threads each, priced from the sizes
    alone."""

    name = "segment_lz"
    segments_per_chunk = SEGMENTS_PER_CHUNK
    chunk_sizes: list[int]

    def cost(self) -> KernelCost:
        costs = DEFAULT_GPU_COSTS
        total = sum(self.chunk_sizes)
        segments = self.segments_per_chunk
        threads = len(self.chunk_sizes) * segments
        segment_bytes = (max(self.chunk_sizes) + segments - 1) // segments
        lane_cycles = (total * costs.lz_work_unit_cycles
                       * costs.lz_divergence_factor)
        return KernelCost(
            name=self.name,
            threads=threads,
            lane_cycles_total=(lane_cycles
                               + threads * costs.lz_fixed_lane_cycles),
            critical_path_cycles=(segment_bytes
                                  * costs.lz_critical_cycles_per_byte),
            bytes_read=total * costs.lz_bytes_read_factor,
            bytes_written=total,  # raw, unrefined match records
        )

    def bytes_in(self) -> int:
        return sum(self.chunk_sizes)

    def bytes_out(self) -> int:
        # Raw token records flow back for CPU refinement; roughly half the
        # input volume for typical primary-storage data.
        return sum(self.chunk_sizes) // 2


@dataclass
class LzTile:
    """Raw tokens of one search tile, flat, in tile coordinates.

    The tile's chunks lie back to back in ``data``: chunk ``c`` is
    ``data[edges[c]:edges[c + 1]]`` and its segment thread ``s`` covers
    ``[seg_start[c, s], seg_end[c, s])``.  Token ``i`` starts at
    ``starts[i]`` and covers ``lengths[i]`` bytes; ``distances[i]`` is a
    match's backward distance and 0 for a literal.  Tokens are in thread
    order, ``counts[c * n_segments + s]`` of them per thread (an idle
    thread emits none).
    """

    first: int                  #: launch index of the tile's chunk 0
    chunks: Sequence[bytes]
    data: bytes = field(repr=False)
    edges: np.ndarray
    seg_start: np.ndarray
    seg_end: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    distances: np.ndarray


class LzLaunch:
    """What :meth:`SegmentLzKernel.execute` hands back: the ``tiles``
    refinement reads and the launch's :data:`LZ_CENSUS`; its length is
    the launch's chunk count.
    """

    def __init__(self, tiles: list[LzTile], census: dict[str, int]):
        self.tiles = tiles
        self.census = census

    def __len__(self) -> int:
        return sum(len(tile.chunks) for tile in self.tiles)


class SegmentLzKernel(_LzPricing):
    """Payload-mode segment-parallel LZ search over a batch of chunks."""

    def __init__(self, chunks: Sequence[bytes],
                 segments_per_chunk: int = SEGMENTS_PER_CHUNK,
                 params: LzParams = DEFAULT_PARAMS):
        if not chunks:
            raise KernelError("empty chunk batch")
        if segments_per_chunk < 1:
            raise KernelError(
                f"invalid segment count {segments_per_chunk}")
        self.chunks = list(chunks)
        self.chunk_sizes = [len(chunk) for chunk in self.chunks]
        for first in range(0, len(self.chunk_sizes), _TILE_CHUNKS):
            tile_bytes = sum(self.chunk_sizes[first:first + _TILE_CHUNKS])
            if tile_bytes + segments_per_chunk >= _POSITION_LIMIT:
                raise KernelError(
                    f"a search tile of {tile_bytes} bytes in "
                    f"{segments_per_chunk} segments per chunk overflows "
                    f"its int32 positions")
        self.segments_per_chunk = segments_per_chunk
        self.params = params
        #: :data:`LZ_CENSUS`, summed over the launch's tiles: walk rounds,
        #: visits to candidate-bearing positions, those left open by the
        #: nearest candidate, and how each open one was closed.
        self.rounds = self.candidate_visits = self.open_visits = 0
        self.closed_by_trigram = self.closed_by_second = 0
        self.scalar_scans = 0

    # -- functional execution ------------------------------------------------

    def execute(self) -> LzLaunch:
        """Search the launch a tile at a time; see :class:`LzLaunch`.

        A segment thread whose range is empty (chunk shorter than the
        segment grid) idles, exactly like a real kernel's out-of-range
        guard, and contributes no tokens.  The search runs in the
        calling process; the pipeline runs it ahead on the codec queue
        (:mod:`repro.host`) instead of at launch.
        """
        tiles = [self._search_tile(first,
                                   self.chunks[first:first + _TILE_CHUNKS])
                 for first in range(0, len(self.chunks), _TILE_CHUNKS)]
        return LzLaunch(tiles, {name: getattr(self, name)
                                for name in LZ_CENSUS})

    def _search_tile(self, first: int, tile: Sequence[bytes]) -> LzTile:
        """Search every segment of a tile of chunks in lockstep.

        ``best_match(pos)`` is a pure function of ``(chunk, pos)`` — the
        longest common prefix, capped at ``min(max_match, n - pos)``,
        over the last :data:`MAX_CHAIN` earlier same-key positions inside
        the window, nearest winning ties — and never depends on the
        parse.  One sort (:meth:`_candidates`) lines every position up
        behind its candidates; lengths are then computed only where the
        parse lands: one cursor per segment thread, all advancing
        together, each round comparing 8-byte words at the cursors and
        at their nearest candidates.  How a round settles each cursor is
        DESIGN.md §9's rule, spelled out at the steps below.
        """
        params = self.params
        window, min_match, max_match = (
            params.window, params.min_match, params.max_match)
        n_chunks, n_segments = len(tile), self.segments_per_chunk
        data = b"".join(tile)
        total = len(data)

        # -- geometry: chunk and segment bounds in tile coordinates ------
        edges = np.zeros(n_chunks + 1, dtype=np.int32)
        np.cumsum([len(chunk) for chunk in tile], dtype=np.int32,
                  out=edges[1:])
        offsets, ends = edges[:-1], edges[1:]
        seg_len = np.maximum(1, -(-(ends - offsets) // n_segments))[:, None]
        seg_start = np.minimum(
            offsets[:, None] + seg_len * np.arange(n_segments,
                                                    dtype=np.int32),
            ends[:, None])
        seg_end = np.minimum(seg_start + seg_len, ends[:, None])
        if total == 0:      # nothing to sort: every thread idles
            idle = np.zeros(seg_start.size, dtype=np.int32)
            return LzTile(first, tile, data, edges, seg_start, seg_end,
                          idle, idle[:0], idle[:0], idle[:0])

        # Zero padding lets every position read its key and as many
        # 8-byte words past it as the longest match needs.
        words = -(-max(0, max_match - _KEY_BYTES) // 8)
        flat = np.frombuffer(data + bytes(_KEY_BYTES + 8 * words),
                             dtype=np.uint8)
        near, jump, rank_of = self._candidates(flat, offsets, ends)
        if words:
            past_key = flat[_KEY_BYTES:]
            rows = sliding_window_view(past_key, 8 * words).view("<u8")

        def shared(a: np.ndarray, b: np.ndarray,
                   limit: np.ndarray) -> np.ndarray:
            """Common prefix of same-key positions, capped at ``limit``:
            the first differing byte of the little-endian words past the
            key (the always-true last column stands for "none")."""
            if not words:
                return np.minimum(_KEY_BYTES, limit)
            diff = (rows[a] ^ rows[b]).astype("<u8", copy=False)
            differs = np.ones((a.size, 8 * words + 1), dtype=bool)
            np.not_equal(diff.view(np.uint8), 0, out=differs[:, :-1])
            return np.minimum(_KEY_BYTES + differs.argmax(axis=1), limit)

        # -- lockstep walk: one cursor per segment thread ----------------
        # step[pos]: bytes the parse advances at a visited pos (1 =
        # literal, as at every unvisited token start); back[pos]: its
        # match distance, 0 for a literal.
        step = np.ones(total, dtype=np.int32)
        back = np.zeros(total, dtype=np.int32)
        pos, stop = seg_start.ravel(), seg_end.ravel()
        floor, bound = (np.repeat(edge, n_segments)    # the cursor's chunk
                        for edge in (offsets, ends))
        while True:
            at = jump[pos]
            live = at < stop    # a dropped cursor's tail is literals
            if not live.all():
                at, stop, floor, bound = (
                    at[live], stop[live], floor[live], bound[live])
            if not at.size:
                break
            nearest = near[at]
            limit = np.minimum(bound - at, max_match)
            length = shared(at, nearest, limit)
            reach = at - nearest
            # A match that overruns its segment is a literal, and a
            # longer one from deeper in the chain would overrun too.
            # One that fits is final once it reaches the cap or when no
            # second in-window candidate exists; otherwise it is open.
            second = near[nearest]
            open_ = np.flatnonzero(
                (at + length <= stop) & (length < limit)
                & (second >= 0) & (at - second <= window))
            # (a) Trigram test: a candidate sharing length + 1 bytes
            # repeats, inside the window, the three bytes ending just
            # past the nearest match; no such repeat, nothing better.
            rest = open_[near[at[open_] + length[open_] - 2] >= 0]
            # (b) Second candidate: it takes over if strictly longer
            # (and long enough to be a match at all) and is final at the
            # cap; short of it the chain scan resumes from whichever of
            # the two now holds the best.
            other = shared(at[rest], second[rest], limit[rest])
            better = other > np.maximum(length[rest], min_match - 1)
            grown = rest[better]
            length[grown] = other[better]
            reach[grown] = at[grown] - second[grown]
            scan = rest[length[rest] < limit[rest]]
            for i in scan.tolist():
                reach[i], length[i] = self._scan_chain(
                    data, rank_of, int(at[i]),
                    max(int(length[i]), min_match - 1), int(reach[i]),
                    int(floor[i]), int(bound[i]))
            matched = (length >= min_match) & (at + length <= stop)
            advance = np.where(matched, length, 1)
            step[at] = advance
            back[at] = np.where(matched, reach, 0)
            pos = at + advance
            self.rounds += 1
            self.candidate_visits += at.size
            self.open_visits += open_.size
            self.closed_by_trigram += open_.size - rest.size
            self.closed_by_second += rest.size - scan.size
            self.scalar_scans += scan.size

        # -- token starts: every position not strictly inside a match ----
        matches = np.flatnonzero(back)
        covered = np.zeros(total + 1, dtype=np.int8)
        covered[matches + 1] = 1
        covered[matches + step[matches]] -= 1
        starts = np.flatnonzero(
            np.cumsum(covered[:total], dtype=np.int8) == 0)
        counts = (np.searchsorted(starts, seg_end.ravel())
                  - np.searchsorted(starts, seg_start.ravel())
                  ).astype(np.int32)

        return LzTile(first, tile, data, edges, seg_start, seg_end, counts,
                      starts, step[starts], back[starts])

    def _candidates(self, flat: np.ndarray, offsets: np.ndarray,
                    ends: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sort a tile's positions behind their candidates.

        Returns ``near`` (each position's nearest earlier same-key
        position of its chunk inside the window, else -1), ``jump`` (the
        first position at or after each one that has such a candidate
        and room for a match: the parse emits literals up to there) and
        ``rank_of`` (the inverse of the sort order).
        """
        total = int(ends[-1])
        every = np.arange(total, dtype=np.int32)
        # Chunk id over the 3-byte key over the position: no two elements
        # are equal, so a plain value sort is the stable order.  (The key
        # is the low three bytes of a little-endian word; any one-to-one
        # image of the three bytes groups the same.)
        keys = sliding_window_view(flat, 4).view("<u4")[:total, 0] \
            .astype(np.int64)
        keys &= 0xFFFFFF
        keys |= np.repeat(np.arange(ends.size) << 24, ends - offsets)
        bits = (total - 1).bit_length()
        keys <<= bits
        keys |= every
        keys.sort()
        order = (keys & ((1 << bits) - 1)).astype(np.int32)
        keys >>= bits
        rank_of = np.empty(total, dtype=np.int32)
        rank_of[order] = every
        chained = keys[1:] == keys[:-1]
        chained &= order[1:] - order[:-1] <= self.params.window
        near = np.full(total, -1, dtype=np.int32)
        near[order[1:][chained]] = order[:-1][chained]
        jump = np.append(every, np.int32(total))
        jump[:total][near < 0] = total
        # Positions with less than a key or less than min_match bytes
        # left start no match.  (The last two of a chunk read a key that
        # runs into the neighbour, but no later position of their chunk
        # exists to take them for a candidate.)
        need = max(self.params.min_match, _KEY_BYTES)
        for start, end in zip(offsets.tolist(), ends.tolist()):
            jump[max(start, end - need + 1):end] = total
        np.minimum.accumulate(jump[::-1], out=jump[::-1])
        return near, jump, rank_of

    def _scan_chain(self, data: bytes, rank_of: np.ndarray, pos: int,
                    best_len: int, best_dist: int, chunk_start: int,
                    chunk_end: int) -> tuple[int, int]:
        """Best ``(distance, length)`` at a position still open.

        Finishes the chain scan of the one chain rule (the
        ``ReferenceMatchFinder`` oracle in ``tests/reference_codecs.py``)
        from the best the candidates down to ``pos - best_dist`` hold,
        ``best_len`` (at least ``min_match - 1``: what a match has to
        beat).  That scan walks the chain nearest first and replaces its
        best only on a strictly longer match, i.e. it moves to the
        nearest earlier candidate that shares ``best_len + 1`` bytes with
        ``pos`` — one ``bytes.rfind`` of that prefix.  The hit must lie
        inside the window and among the last :data:`MAX_CHAIN`
        occurrences of the key (at most that many sort ranks below
        ``pos``); older candidates fail both tests too, so the scan
        stops there.
        """
        params = self.params
        limit = min(chunk_end - pos, params.max_match)
        window_start = max(chunk_start, pos - params.window)
        oldest_rank = rank_of[pos] - MAX_CHAIN
        # Every candidate from here up shares at most best_len bytes.
        nearer = pos - best_dist
        while best_len < limit:
            candidate = data.rfind(data[pos:pos + best_len + 1],
                                   window_start, nearer + best_len)
            if candidate < 0 or rank_of[candidate] < oldest_rank:
                break
            best_len = common_prefix_length(data, candidate, pos, limit)
            best_dist = pos - candidate
            nearer = candidate
        return best_dist, best_len


class DescriptorLzKernel(_LzPricing):
    """The LZ launch the pipeline prices, from chunk sizes alone.

    ``chunk_ratios`` carries the workload generator's per-chunk achieved
    compression ratio; the kernel's synthetic result is the compressed
    size each chunk would have (descriptor mode).  Its cost is
    :class:`SegmentLzKernel`'s for chunks of the same sizes, so a
    payload launch, whose search runs on the codec queue, is priced
    with it too.
    """

    def __init__(self, chunk_sizes: Sequence[int],
                 chunk_ratios: Sequence[float]):
        if not chunk_sizes:
            raise KernelError("empty chunk batch")
        if len(chunk_sizes) != len(chunk_ratios):
            raise KernelError("sizes/ratios length mismatch")
        self.chunk_sizes = list(chunk_sizes)
        self.chunk_ratios = [max(1.0, r) for r in chunk_ratios]

    def execute(self) -> list[int]:
        """Synthetic compressed sizes implied by the workload's ratios."""
        return [max(1, int(size / ratio)) for size, ratio
                in zip(self.chunk_sizes, self.chunk_ratios)]
