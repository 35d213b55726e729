"""vdbench-style chunk streams with dedup and compression dials.

The paper: "The vdbench is used to generate the dataset.  The size of the
data stream is about 2 GB.  The deduplication and compression ratio are
set to 2.0, which is a common ratio for primary storage systems."

A :class:`VdbenchStream` emits chunks where

* each chunk is a duplicate of an earlier one with probability
  ``1 - 1/dedup_ratio`` (so the stream's total/unique ratio converges to
  the dial),
* duplicate picks favour the *recent* working set with probability
  ``locality`` (temporal locality — what makes the paper's bin buffer
  earn its keep) and otherwise draw uniformly from all prior uniques,
* every unique gets a per-chunk compression ratio drawn around the dial.

Payload mode regenerates real bytes deterministically per unique id, so
duplicates are byte-identical and SHA-1 finds them; descriptor mode ships
synthetic fingerprints (shared between duplicates) and the drawn ratio,
which keeps indexing fully real at 2 GB scale without materializing 2 GB.
"""

from __future__ import annotations

import hashlib
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.chunkbatch import ChunkBatch
from repro.errors import ConfigError, WorkloadError
from repro.types import Chunk, DEFAULT_CHUNK_SIZE
from repro.workload.datagen import BlockContentGenerator, \
    analytic_random_fraction

#: Entry budget of the batched path's per-unique payload cache (at the
#: 4 KiB default chunk size this is ~4 MB of regenerated blocks).
PAYLOAD_CACHE_ENTRIES = 1024


@dataclass
class StreamStats:
    """Ground-truth statistics of an emitted stream."""

    chunks: int = 0
    uniques: int = 0
    duplicates: int = 0
    bytes_emitted: int = 0
    ratio_sum: float = 0.0

    @property
    def dedup_ratio(self) -> float:
        """total chunks / unique chunks."""
        return self.chunks / self.uniques if self.uniques else 1.0

    @property
    def mean_comp_ratio(self) -> float:
        """Mean per-chunk compression-ratio dial value."""
        return self.ratio_sum / self.chunks if self.chunks else 1.0


class VdbenchStream:
    """Deterministic chunk stream with dedup/compression dials."""

    def __init__(self, dedup_ratio: float = 2.0, comp_ratio: float = 2.0,
                 chunk_size: int = DEFAULT_CHUNK_SIZE, seed: int = 0,
                 payload: bool = False, comp_spread: float = 0.15,
                 locality: float = 0.5, working_set: int = 128,
                 offset_base: int = 0):
        if dedup_ratio < 1.0:
            raise WorkloadError(
                f"dedup_ratio must be >= 1.0, got {dedup_ratio}")
        if comp_ratio < 1.0:
            raise WorkloadError(
                f"comp_ratio must be >= 1.0, got {comp_ratio}")
        if not 0.0 <= locality <= 1.0:
            raise WorkloadError(f"locality must be in [0, 1], "
                                f"got {locality}")
        if working_set < 1:
            raise WorkloadError(
                f"working_set must be >= 1, got {working_set}")
        if offset_base < 0:
            raise WorkloadError(
                f"offset_base must be >= 0, got {offset_base}")
        self.dedup_ratio = dedup_ratio
        self.comp_ratio = comp_ratio
        self.chunk_size = chunk_size
        self.seed = seed
        self.payload = payload
        self.comp_spread = comp_spread
        self.locality = locality
        self.working_set = working_set
        self._rng = random.Random(seed)
        self._dup_probability = 1.0 - 1.0 / dedup_ratio
        #: Per-unique-id compression ratio (duplicates share content).
        self._unique_ratios: list[float] = []
        #: Logical address cursor; tenancy mixes give each tenant a
        #: disjoint address stride so interleaved streams never collide.
        self._offset = offset_base
        self._content = BlockContentGenerator(comp_ratio, seed=seed) \
            if payload else None
        #: Batched-path caches: duplicates reuse the unique's fingerprint
        #: (descriptor mode) or regenerated block (payload mode, bounded
        #: LRU) instead of re-deriving it.  Pure memoization — both are
        #: deterministic functions of the unique id — so the emitted
        #: chunks are byte-equal to the per-chunk path's.
        self._unique_fps: dict[int, bytes] = {}
        self._payload_cache: OrderedDict[int, bytes] = OrderedDict()
        self.stats = StreamStats()

    # -- internals ---------------------------------------------------------

    def _draw_ratio(self) -> float:
        ratio = self._rng.gauss(self.comp_ratio,
                                self.comp_ratio * self.comp_spread)
        return max(1.0, ratio)

    def _pick_duplicate_id(self) -> int:
        n = len(self._unique_ratios)
        if self.locality and self._rng.random() < self.locality:
            window = min(self.working_set, n)
            return self._rng.randrange(n - window, n)
        return self._rng.randrange(n)

    def _fingerprint_for(self, unique_id: int) -> bytes:
        return hashlib.sha1(
            f"vdbench:{self.seed}:{unique_id}".encode()).digest()

    def _payload_for(self, unique_id: int, ratio: float) -> bytes:
        assert self._content is not None
        self._content.random_fraction = analytic_random_fraction(ratio)
        return self._content.make_block(self.chunk_size, salt=unique_id)

    # -- stream ------------------------------------------------------------

    def next_chunk(self) -> Chunk:
        """Emit the next chunk of the stream."""
        is_dup = (self._unique_ratios
                  and self._rng.random() < self._dup_probability)
        if is_dup:
            unique_id = self._pick_duplicate_id()
            ratio = self._unique_ratios[unique_id]
            self.stats.duplicates += 1
        else:
            unique_id = len(self._unique_ratios)
            ratio = self._draw_ratio()
            self._unique_ratios.append(ratio)
            self.stats.uniques += 1

        chunk = Chunk(
            offset=self._offset,
            size=self.chunk_size,
            payload=(self._payload_for(unique_id, ratio)
                     if self.payload else None),
            fingerprint=(None if self.payload
                         else self._fingerprint_for(unique_id)),
            comp_ratio=None if self.payload else ratio,
        )
        self._offset += self.chunk_size
        self.stats.chunks += 1
        self.stats.bytes_emitted += self.chunk_size
        self.stats.ratio_sum += ratio
        return chunk

    def chunks(self, n: int) -> Iterator[Chunk]:
        """Emit ``n`` chunks."""
        for _ in range(n):
            yield self.next_chunk()

    # -- batched emission (the array-native functional plane) ----------------

    def _fingerprint_cached(self, unique_id: int) -> bytes:
        fingerprint = self._unique_fps.get(unique_id)
        if fingerprint is None:
            fingerprint = self._fingerprint_for(unique_id)
            self._unique_fps[unique_id] = fingerprint
        return fingerprint

    def _payload_cached(self, unique_id: int, ratio: float) -> bytes:
        cache = self._payload_cache
        payload = cache.get(unique_id)
        if payload is not None:
            cache.move_to_end(unique_id)
            return payload
        payload = self._payload_for(unique_id, ratio)
        if len(cache) >= PAYLOAD_CACHE_ENTRIES:
            cache.popitem(last=False)
        cache[unique_id] = payload
        return payload

    def next_batch(self, n: int) -> ChunkBatch:
        """Emit the next ``n`` chunks as one :class:`ChunkBatch`.

        Consumes the stream RNG in exactly the per-chunk order (one
        dup-coin draw per chunk once a unique exists, one ratio draw
        per new unique, dup picks via the same locality walk), so
        ``next_batch(n).materialize()`` equals ``[next_chunk() for _ in
        range(n)]`` element-wise — the workload equivalence suite holds
        both paths to that.
        """
        if n < 1:
            raise WorkloadError(f"batch size must be >= 1, got {n}")
        if self.chunk_size <= 0:
            # Same error the per-chunk path's Chunk validation raises.
            raise ConfigError(f"invalid chunk size {self.chunk_size}")
        # The decision kernel below inlines _pick_duplicate_id and
        # _draw_ratio: every RNG draw happens in the per-chunk order, so
        # the stream stays bit-identical while the batch drops the
        # per-chunk method-call overhead.
        rng = self._rng
        rng_random = rng.random
        rng_randrange = rng.randrange
        rng_gauss = rng.gauss
        ratios = self._unique_ratios
        append_ratio = ratios.append
        dup_probability = self._dup_probability
        locality = self.locality
        working_set = self.working_set
        mean_ratio = self.comp_ratio
        sigma = mean_ratio * self.comp_spread
        stats = self.stats
        fps = None if self.payload else self._unique_fps
        fp_prefix = f"vdbench:{self.seed}:"
        sha1 = hashlib.sha1
        unique_ids: list[int] = []
        append_uid = unique_ids.append
        duplicates = 0
        for _ in range(n):
            n_uniques = len(ratios)
            if n_uniques and rng_random() < dup_probability:
                if locality and rng_random() < locality:
                    window = (working_set if working_set < n_uniques
                              else n_uniques)
                    unique_id = rng_randrange(n_uniques - window,
                                              n_uniques)
                else:
                    unique_id = rng_randrange(n_uniques)
                duplicates += 1
                ratio = ratios[unique_id]
            else:
                unique_id = n_uniques
                ratio = max(1.0, rng_gauss(mean_ratio, sigma))
                append_ratio(ratio)
                if fps is not None and unique_id not in fps:
                    fps[unique_id] = sha1(
                        (fp_prefix + str(unique_id)).encode()).digest()
            append_uid(unique_id)
            # Order-faithful float accumulation (matches next_chunk).
            stats.ratio_sum += ratio

        size = self.chunk_size
        offsets = self._offset + size * np.arange(n, dtype=np.int64)
        sizes = np.full(n, size, dtype=np.int64)
        if self.payload:
            payloads = [self._payload_cached(uid, ratios[uid])
                        for uid in unique_ids]
            fingerprints: list = [None] * n
            comp_ratios: list = [None] * n
        else:
            payloads = [None] * n
            # Creation-time fills above make this all dict hits; the
            # cached fallback covers uniques minted by next_chunk before
            # the stream switched to batched emission.
            fps_get = fps.get
            fp_fill = self._fingerprint_cached
            fingerprints = [fps_get(uid) or fp_fill(uid)
                            for uid in unique_ids]
            comp_ratios = [ratios[uid] for uid in unique_ids]
        self._offset += size * n
        stats.chunks += n
        stats.uniques += n - duplicates
        stats.duplicates += duplicates
        stats.bytes_emitted += size * n
        # The emitting stream validated every column by construction.
        return ChunkBatch(offsets, sizes, payloads, fingerprints,
                          comp_ratios, validate=False)

    def chunks_batched(self, n: int, window: int = 64) -> Iterator[Chunk]:
        """Emit ``n`` chunks, materialized window-at-a-time.

        The batched pipeline feeder's source: same chunks as
        :meth:`chunks`, produced through :meth:`next_batch` windows.
        """
        if window < 1:
            raise WorkloadError(f"window must be >= 1, got {window}")
        remaining = n
        while remaining > 0:
            take = window if window < remaining else remaining
            yield from self.next_batch(take).materialize()
            remaining -= take

    def chunks_for_bytes(self, total_bytes: int) -> Iterator[Chunk]:
        """Emit chunks until ``total_bytes`` of stream have been produced."""
        emitted = 0
        while emitted < total_bytes:
            chunk = self.next_chunk()
            emitted += chunk.size
            yield chunk
