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

from repro.chunkbatch import window_sizes
from repro.errors import WorkloadError
from repro.types import Chunk, DEFAULT_CHUNK_SIZE
from repro.workload.datagen import BlockContentGenerator, \
    analytic_random_fraction

#: Entry budget of the per-unique payload cache (~4 MB of regenerated
#: 4 KiB blocks).
PAYLOAD_CACHE_ENTRIES = 1024

_chunk_new = Chunk.__new__


@dataclass
class StreamStats:
    """Ground-truth statistics of an emitted stream."""

    chunks: int = 0
    uniques: int = 0
    duplicates: int = 0
    bytes_emitted: int = 0


class VdbenchStream:
    """Deterministic chunk stream with dedup/compression dials; its
    chunks are ``DEFAULT_CHUNK_SIZE`` blocks at consecutive offsets."""

    def __init__(self, dedup_ratio: float = 2.0, comp_ratio: float = 2.0,
                 *, seed: int,
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
        #: Duplicates reuse the unique's fingerprint (descriptor mode,
        #: indexed by unique id) or regenerated block (payload mode,
        #: bounded LRU) instead of re-deriving it.  Both are
        #: deterministic functions of the unique id.
        self._unique_fps: list[bytes] = []
        self._payload_cache: OrderedDict[int, bytes] = OrderedDict()
        self.stats = StreamStats()

    def _payload_cached(self, unique_id: int, ratio: float) -> bytes:
        cache = self._payload_cache
        payload = cache.get(unique_id)
        if payload is not None:
            cache.move_to_end(unique_id)
            return payload
        assert self._content is not None
        self._content.random_fraction = analytic_random_fraction(ratio)
        payload = self._content.make_block(DEFAULT_CHUNK_SIZE,
                                          salt=unique_id)
        if len(cache) >= PAYLOAD_CACHE_ENTRIES:
            cache.popitem(last=False)
        cache[unique_id] = payload
        return payload

    # -- stream ------------------------------------------------------------

    def next_batch(self, n: int) -> list[Chunk]:
        """Emit the next ``n`` chunks.

        The stream's only RNG walk, a sequential decision loop: per
        chunk one dup-coin draw once a unique exists; a duplicate then
        draws a locality coin (when ``locality`` is non-zero) and one
        ``randrange`` pick, a new unique one ratio draw.  The chunks
        are built from the decided unique ids afterwards, through a
        constructor that skips ``Chunk.__post_init__``: every field is
        built valid here, and the per-chunk oracle in
        ``tests/reference_paths.py``, which this must equal
        element-wise, validates.
        """
        if n < 1:
            raise WorkloadError(f"batch size must be >= 1, got {n}")
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
            else:
                unique_id = n_uniques
                append_ratio(max(1.0, rng_gauss(mean_ratio, sigma)))
                if fps is not None:
                    fps.append(sha1(
                        (fp_prefix + str(unique_id)).encode()).digest())
            append_uid(unique_id)

        size = DEFAULT_CHUNK_SIZE
        offset = self._offset
        new = _chunk_new
        out: list[Chunk] = []
        append = out.append
        for unique_id in unique_ids:
            chunk = new(Chunk)
            chunk.offset = offset
            chunk.size = size
            if fps is None:
                chunk.payload = self._payload_cached(unique_id,
                                                     ratios[unique_id])
                chunk.fingerprint = None
                chunk.comp_ratio = None
            else:
                chunk.payload = None
                chunk.fingerprint = fps[unique_id]
                chunk.comp_ratio = ratios[unique_id]
            chunk.is_duplicate = None
            chunk.compressed_size = None
            chunk.tenant = None
            append(chunk)
            offset += size
        self._offset = offset
        stats.chunks += n
        stats.uniques += n - duplicates
        stats.duplicates += duplicates
        stats.bytes_emitted += size * n
        return out

    def next_chunk(self) -> Chunk:
        """``next_batch(1)``'s chunk; e2ebench's ledger wraps it."""
        return self.next_batch(1)[0]

    def chunks(self, n: int) -> Iterator[Chunk]:
        """Emit ``n`` chunks, built one functional window at a time (a
        window is drawn whole before its first chunk yields)."""
        for take in window_sizes(n):
            yield from self.next_batch(take)
