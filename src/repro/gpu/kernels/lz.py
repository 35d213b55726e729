"""Segment-parallel LZ match-search kernel (paper §3.2(2)).

Ozsoy et al.'s GPU LZ assumes inputs large enough to feed the whole
device; a 4 KiB storage chunk is not.  The paper's answer — implemented
here — is to compress *many chunks at once* and to put *multiple threads
on each chunk*: the chunk is cut into segments, every thread runs an LZ
match search over its own segment, and adjacent threads overlap by the
history-window size so matches may reach back across the segment seam.

The kernel's output is deliberately *raw*: per-segment token arrays that
have not been stitched into a single valid stream ("The GPU's compression
results are not refined in GPU due to performance issues").  The CPU-side
refinement lives in :mod:`repro.compression.postprocess`.

Two kernel classes share one cost model:

* :class:`SegmentLzKernel` — payload mode: really searches matches, a
  tile of chunks at a time as one array problem (DESIGN.md §9), emitting
  exactly the tokens a per-segment greedy parse over
  :class:`~repro.compression.lzss.IndexedMatchFinder` would.
* :class:`DescriptorLzKernel` — descriptor mode for large timed runs:
  no payload, synthetic output sizes from the workload's compression
  ratio, analytic divergence.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.compression.lz_common import (
    DEFAULT_PARAMS,
    Literal,
    LzParams,
    Match,
    Token,
    common_prefix_length,
)
from repro.compression.lzss import MAX_CHAIN
from repro.errors import KernelError
from repro.gpu.costs import DEFAULT_GPU_COSTS, GpuKernelCosts
from repro.gpu.kernel import Kernel, KernelCost
from repro.gpu.simt import SimtStats

#: Chunks searched per array pass.  Enough to amortise a pass's ~50
#: numpy calls, few enough that its per-position int32 temporaries stay
#: cache-resident: a whole-launch (256-chunk) pass page-faults multi-MB
#: temporaries on first touch and measured slower than the scalar search
#: it replaced (DESIGN.md §9).  The chunk id shares an int32 sort key
#: with the 24-bit rolling key, so this must stay below 128.
_TILE_CHUNKS = 32
#: Bytes in the rolling key: every candidate agrees on at least these.
_KEY_BYTES = 3
#: Lanes per lockstep wavefront (GCN), as in :class:`repro.gpu.simt.SimtGrid`.
_WAVEFRONT = 64


def _lz_cost(name: str, threads: int, total_bytes: int, segment_bytes: int,
             costs: GpuKernelCosts,
             measured: Optional[SimtStats] = None) -> KernelCost:
    """Shared cost formula for both LZ kernel flavours.

    With measured SIMT statistics, lane cycles are charged for the slots a
    lockstep wavefront actually burns; otherwise the analytic divergence
    factor stands in.
    """
    if measured is not None and measured.wavefront_slot_units > 0:
        # slot_units = lane-slots a lockstep wavefront burns, so the
        # intra-wavefront imbalance is already *measured*; only the
        # per-lane branch serialization factor remains analytic.
        lane_cycles = (measured.wavefront_slot_units
                       * costs.lz_work_unit_cycles
                       * costs.lz_lane_serial_factor)
    else:
        lane_cycles = (total_bytes * costs.lz_work_unit_cycles
                       * costs.lz_divergence_factor)
    return KernelCost(
        name=name,
        threads=threads,
        lane_cycles_total=lane_cycles + threads * costs.lz_fixed_lane_cycles,
        critical_path_cycles=segment_bytes * costs.lz_critical_cycles_per_byte,
        bytes_read=total_bytes * costs.lz_bytes_read_factor,
        bytes_written=total_bytes,  # raw, unrefined match records
    )


@dataclass
class SegmentOutput:
    """Raw output of one segment thread: tokens covering [start, end).

    Token ``i`` starts at chunk offset ``positions[i]`` and covers
    ``lengths[i]`` bytes; ``distances[i]`` is the backward distance of a
    match and 0 for a literal (whose length is 1).
    """

    chunk_index: int
    segment_index: int
    start: int
    end: int
    positions: np.ndarray
    lengths: np.ndarray
    distances: np.ndarray
    chunk: bytes = field(repr=False)

    @property
    def tokens(self) -> list[Token]:
        """The token-object view of the arrays (tests and examples)."""
        chunk = self.chunk
        return [Match(distance=distance, length=length) if distance
                else Literal(chunk[position])
                for position, length, distance
                in zip(self.positions.tolist(), self.lengths.tolist(),
                       self.distances.tolist())]


class SegmentLzKernel(Kernel):
    """Payload-mode segment-parallel LZ search over a batch of chunks."""

    name = "segment_lz"

    def __init__(self, chunks: Sequence[bytes], segments_per_chunk: int = 8,
                 params: LzParams = DEFAULT_PARAMS,
                 costs: GpuKernelCosts = DEFAULT_GPU_COSTS,
                 use_simt: bool = False,
                 workgroup_size: int = 64):
        if not chunks:
            raise KernelError("empty chunk batch")
        if segments_per_chunk < 1:
            raise KernelError(
                f"invalid segment count {segments_per_chunk}")
        if workgroup_size < 1:
            raise KernelError(f"invalid workgroup size {workgroup_size}")
        self.chunks = list(chunks)
        self.segments_per_chunk = segments_per_chunk
        self.params = params
        self.costs = costs
        self.use_simt = use_simt
        self.workgroup_size = workgroup_size
        self._stats: Optional[SimtStats] = None

    # -- functional execution ------------------------------------------------

    def execute(self) -> list[list[SegmentOutput]]:
        """Return raw per-segment outputs, grouped by chunk.

        A segment thread whose range is empty (chunk shorter than the
        segment grid) idles, exactly like a real kernel's out-of-range
        guard, and contributes no output.
        """
        outputs: list[list[SegmentOutput]] = []
        token_counts: list[np.ndarray] = []
        for first in range(0, len(self.chunks), _TILE_CHUNKS):
            tile = self.chunks[first:first + _TILE_CHUNKS]
            tile_outputs, counts = self._search_tile(first, tile)
            outputs.extend(tile_outputs)
            token_counts.append(counts)
        if self.use_simt:
            self._stats = self._simt_stats(np.concatenate(token_counts))
        return outputs

    def _search_tile(self, first: int, tile: Sequence[bytes]
                     ) -> tuple[list[list[SegmentOutput]], np.ndarray]:
        """Search every segment of a tile of chunks in one array pass.

        ``best_match(pos)`` is a pure function of ``(chunk, pos)`` — the
        longest common prefix, capped at ``min(max_match, n - pos)``,
        over the last :data:`MAX_CHAIN` earlier same-key positions inside
        the window, nearest winning ties — and never depends on the
        parse.  So one stable sort of ``chunk_id << 24 | key3`` lines up
        every position behind its candidates, one gather/compare yields
        every position's *nearest-candidate* match, and that match is
        already final when it reaches the cap or no second candidate
        exists.  The greedy walk below then only hops over precomputed
        steps, scanning the rest of the chain (:meth:`_scan_chain`) for
        the few visited positions still open.

        Returns the per-chunk segment outputs and the per-thread token
        counts (idle threads count 0).
        """
        params = self.params
        window, min_match, max_match = (
            params.window, params.min_match, params.max_match)
        n_chunks, n_segments = len(tile), self.segments_per_chunk
        data = b"".join(tile)
        total = len(data)
        counts = np.zeros(n_chunks * n_segments, dtype=np.int32)
        if total == 0:
            return [[] for _ in tile], counts

        # -- geometry: chunk and segment bounds in tile coordinates ------
        sizes = np.array([len(chunk) for chunk in tile], dtype=np.int32)
        ends = np.cumsum(sizes, dtype=np.int32)
        offsets = ends - sizes
        seg_len = np.maximum(1, -(-sizes // n_segments))[:, None]
        seg_start = np.minimum(
            offsets[:, None] + seg_len * np.arange(n_segments,
                                                    dtype=np.int32),
            ends[:, None])
        seg_end = np.minimum(seg_start + seg_len, ends[:, None])
        chunk_end_at = np.repeat(ends, sizes)
        seg_end_at = np.repeat(seg_end.ravel(), (seg_end - seg_start).ravel())

        # -- sort key: chunk id over the rolling 3-byte key --------------
        flat = np.frombuffer(data + bytes(max_match + _KEY_BYTES),
                             dtype=np.uint8)
        wide = flat.astype(np.int32)
        keys = ((wide[:total] << 16) | (wide[1:total + 1] << 8)
                | wide[2:total + 2])
        keys |= np.repeat(np.arange(n_chunks, dtype=np.int32) << 24, sizes)
        # The last two positions of a chunk have no 3-byte key; a unique
        # negative key each keeps them out of every candidate group.
        keyless = (ends[:, None] - np.arange(_KEY_BYTES - 1, 0, -1,
                                             dtype=np.int32)).ravel()
        keyless = keyless[keyless >= np.repeat(offsets, _KEY_BYTES - 1)]
        keys[keyless] = -1 - keyless
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]

        # -- nearest candidate of every position that has one ------------
        # rank: sort index of a position whose predecessor shares its key
        # (same chunk, same three bytes, earlier offset: its chain head).
        rank = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1]) + 1
        here = order[rank]
        distance = here - order[rank - 1]
        limit = np.minimum(chunk_end_at[here] - here, max_match)
        usable = (distance <= window) & (limit >= min_match)
        if not usable.all():
            rank, here, distance, limit = (
                rank[usable], here[usable], distance[usable], limit[usable])
        # First differing byte past the key; the always-true last column
        # stands for "none within max_match".
        beyond = max(0, max_match - _KEY_BYTES)
        differs = np.ones((here.size, beyond + 1), dtype=bool)
        if beyond:
            rows = sliding_window_view(flat[_KEY_BYTES:], beyond)
            np.not_equal(rows[here], rows[here - distance],
                         out=differs[:, :beyond])
        length = np.minimum(_KEY_BYTES + differs.argmax(axis=1), limit)

        # -- final, open or rejected -------------------------------------
        # A match that overruns its segment is rejected outright, and a
        # longer one from deeper in the chain would overrun too.  One
        # that fits is final once it reaches the cap or when no second
        # in-window candidate exists; otherwise the position stays open.
        fits = here + length <= seg_end_at[here]
        final = fits & (length >= min_match)
        short = np.flatnonzero(fits & (length < limit) & (rank >= 2))
        second = rank[short] - 2
        still = ((sorted_keys[second] == sorted_keys[rank[short]])
                 & (here[short] - order[second] <= window))
        open_ = short[still]
        final[open_] = False
        # step[pos]: bytes the parse advances at pos (1 = literal); an
        # open position holds minus the length its scan has to beat.
        step = np.ones(total, dtype=np.int32)
        step[here[final]] = length[final]
        step[here[open_]] = -np.maximum(length[open_], min_match - 1)
        back = np.zeros(total, dtype=np.int32)
        back[here[final]] = distance[final]
        back[here[open_]] = np.where(length[open_] >= min_match,
                                     distance[open_], 0)
        rank_of = np.empty(total, dtype=np.int32)
        rank_of[order] = np.arange(total, dtype=np.int32)

        # -- greedy walk: append token starts, resolve open positions ----
        hop = step.tolist()
        starts = array("i")
        visit = starts.append
        chunk_bounds = list(zip(offsets.tolist(), ends.tolist()))
        bounds = zip(seg_start.ravel().tolist(), seg_end.ravel().tolist())
        for thread, (pos, stop) in enumerate(bounds):
            before = len(starts)
            while pos < stop:
                visit(pos)
                advance = hop[pos]
                if advance < 0:
                    reach, advance = self._scan_chain(
                        data, rank_of, pos, -advance, int(back[pos]),
                        *chunk_bounds[thread // n_segments])
                    if not reach or pos + advance > stop:
                        reach, advance = 0, 1
                    step[pos] = advance
                    back[pos] = reach
                pos += advance
            counts[thread] = len(starts) - before

        # -- array-native raw tokens, one view per segment ---------------
        token_pos = np.frombuffer(starts, dtype=np.intc)
        token_len = step[token_pos]
        token_back = back[token_pos]
        per_chunk = counts.reshape(n_chunks, n_segments).sum(axis=1)
        token_pos = token_pos - np.repeat(offsets, per_chunk)
        cuts = np.cumsum(counts).tolist()
        rel_start = (seg_start - offsets[:, None]).ravel().tolist()
        rel_end = (seg_end - offsets[:, None]).ravel().tolist()
        outputs: list[list[SegmentOutput]] = [[] for _ in tile]
        lo = 0
        for thread, hi in enumerate(cuts):
            if hi > lo:
                index, segment = divmod(thread, n_segments)
                outputs[index].append(SegmentOutput(
                    chunk_index=first + index, segment_index=segment,
                    start=rel_start[thread], end=rel_end[thread],
                    positions=token_pos[lo:hi], lengths=token_len[lo:hi],
                    distances=token_back[lo:hi], chunk=tile[index]))
                lo = hi
        return outputs, counts

    def _scan_chain(self, data: bytes, rank_of: np.ndarray, pos: int,
                    best_len: int, best_dist: int, chunk_start: int,
                    chunk_end: int) -> tuple[int, int]:
        """Best ``(distance, length)`` at an open position; distance 0 = none.

        Finishes the scan of :meth:`IndexedMatchFinder.best_match
        <repro.compression.lzss.IndexedMatchFinder.best_match>` from the
        nearest candidate's ``(best_dist, best_len)``.  That scan walks
        the chain nearest first and replaces its best only on a strictly
        longer match, i.e. it moves to the nearest earlier candidate
        that shares ``best_len + 1`` bytes with ``pos`` — which is one
        ``bytes.rfind`` of that prefix.  The hit must lie inside the
        window and among the last :data:`MAX_CHAIN` occurrences of the
        key (at most that many sort ranks below ``pos``); older
        candidates fail both tests too, so the scan stops there.
        """
        params = self.params
        limit = min(chunk_end - pos, params.max_match)
        window_start = max(chunk_start, pos - params.window)
        oldest_rank = rank_of[pos] - MAX_CHAIN
        # Every candidate from here up shares at most best_len bytes.
        nearer = pos - best_dist if best_dist else pos
        while best_len < limit:
            candidate = data.rfind(data[pos:pos + best_len + 1],
                                   window_start, nearer + best_len)
            if candidate < 0 or rank_of[candidate] < oldest_rank:
                break
            best_len = common_prefix_length(data, candidate, pos, limit)
            best_dist = pos - candidate
            nearer = candidate
        return best_dist, best_len

    def _simt_stats(self, token_counts: np.ndarray) -> SimtStats:
        """What the SIMT executor would measure, from token counts.

        Each thread does one work unit per token it emits.  The grid is
        padded to whole workgroups; a lockstep wavefront burns its peak
        lane's work on every lane, idle padding lanes included.
        """
        group = self.workgroup_size
        threads = -(-token_counts.size // group) * group
        work = np.zeros(threads, dtype=np.int64)
        work[:token_counts.size] = token_counts
        lanes = work.reshape(-1, group)
        slot_units = 0
        for lane in range(0, group, _WAVEFRONT):
            wave = lanes[:, lane:lane + _WAVEFRONT]
            slot_units += int(wave.max(axis=1).sum()) * wave.shape[1]
        return SimtStats(threads=threads, workgroups=threads // group,
                         work_units=float(work.sum()),
                         wavefront_slot_units=float(slot_units))

    # -- timing -------------------------------------------------------------

    def cost(self) -> KernelCost:
        total = sum(len(c) for c in self.chunks)
        longest = max(len(c) for c in self.chunks)
        segment_bytes = (longest + self.segments_per_chunk - 1) \
            // self.segments_per_chunk
        return _lz_cost(self.name,
                        len(self.chunks) * self.segments_per_chunk,
                        total, segment_bytes, self.costs, self._stats)

    def bytes_in(self) -> int:
        return sum(len(c) for c in self.chunks)

    def bytes_out(self) -> int:
        # Raw token records flow back for CPU refinement; roughly half the
        # input volume for typical primary-storage data.
        return sum(len(c) for c in self.chunks) // 2


class DescriptorLzKernel(Kernel):
    """Descriptor-mode LZ kernel for large timed runs (no payloads).

    ``chunk_ratios`` carries the workload generator's per-chunk achieved
    compression ratio; the kernel's synthetic result is the compressed
    size each chunk would have.
    """

    name = "segment_lz"

    def __init__(self, chunk_sizes: Sequence[int],
                 chunk_ratios: Sequence[float],
                 segments_per_chunk: int = 8,
                 costs: GpuKernelCosts = DEFAULT_GPU_COSTS):
        if not chunk_sizes:
            raise KernelError("empty chunk batch")
        if len(chunk_sizes) != len(chunk_ratios):
            raise KernelError("sizes/ratios length mismatch")
        if segments_per_chunk < 1:
            raise KernelError(f"invalid segment count {segments_per_chunk}")
        self.chunk_sizes = list(chunk_sizes)
        self.chunk_ratios = [max(1.0, r) for r in chunk_ratios]
        self.segments_per_chunk = segments_per_chunk
        self.costs = costs

    def execute(self) -> list[int]:
        """Synthetic compressed sizes implied by the workload's ratios."""
        return [max(1, int(size / ratio)) for size, ratio
                in zip(self.chunk_sizes, self.chunk_ratios)]

    def cost(self) -> KernelCost:
        total = sum(self.chunk_sizes)
        longest = max(self.chunk_sizes)
        segment_bytes = (longest + self.segments_per_chunk - 1) \
            // self.segments_per_chunk
        return _lz_cost(self.name,
                        len(self.chunk_sizes) * self.segments_per_chunk,
                        total, segment_bytes, self.costs)

    def bytes_in(self) -> int:
        return sum(self.chunk_sizes)

    def bytes_out(self) -> int:
        return sum(self.chunk_sizes) // 2
