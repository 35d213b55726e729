"""Deduplication engine: functional state machine plus cost accounting.

This class owns the dedup data structures (bin buffer, bin trees,
optional GPU bins, chunk metadata) and exposes the *operations* of the
paper's Fig. 1 workflow.  Every operation returns both its functional
outcome and the CPU cycles it costs, so the timed pipeline can charge the
simulated CPU without this module knowing anything about simulation.

Lookup order on the CPU path follows the paper exactly: bin buffer first
("recently updated chunks can reside in the bin buffer and chunks are
more likely to find duplicates in the bin buffer due to temporal
locality"), then the bin tree.  Unique chunks are staged in the bin
buffer; a full bin flushes as one unit — entries move to the bin tree and
the GPU bins, and the bin's compressed data destages as one sequential
write.

The bins are the one fingerprint index: each entry carries the stored
chunk's physical id, and a hit whose id the chunk table no longer holds
(its chunk was swept; ids are never reused) is a miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.cpu.costs import DEFAULT_COSTS
from repro.dedup.bin_buffer import BinBuffer
from repro.dedup.bins import BinTable
from repro.dedup.gpu_index import GpuBinIndex
from repro.dedup.index_base import decompose
from repro.errors import ConfigError, DedupError
from repro.obs.stages import (
    CTR_BUFFER_HITS,
    CTR_FLUSHES,
    CTR_GPU_HITS,
    CTR_RACE_DUPLICATES,
    CTR_RESTARTS,
    CTR_TREE_HITS,
    CTR_UNIQUES,
    DEDUP_COUNTER_KEYS,
)
from repro.storage.metadata import MetadataStore
from repro.types import Chunk


class IndexOutcome(NamedTuple):
    """Result of running a chunk through the CPU indexing path.

    Immutable (an engine hands out one shared bin-buffer miss); a tuple
    costs half what a frozen slots dataclass does to build.
    """

    duplicate: bool
    #: Where the decision fell: "buffer", "tree", or "unique".
    path: str
    cpu_cycles: float
    #: Physical id of the stored copy a duplicate maps onto.
    physical_id: Optional[int] = None


@dataclass(slots=True)
class DestageBatch:
    """One flushed bin's worth of compressed data, written sequentially."""

    bin_id: int
    chunk_count: int
    payload_bytes: int


class DedupEngine:
    """Functional dedup state with per-operation cycle costs."""

    __slots__ = ("bin_table", "bin_buffer", "gpu_index",
                 "metadata", "_prefix_bytes", "counters",
                 "_buffer_miss")

    def __init__(self, prefix_bytes: int = 2,
                 bin_buffer_capacity: int = 64,
                 bin_buffer_total: Optional[int] = None,
                 gpu_index: Optional[GpuBinIndex] = None):
        if gpu_index is not None and gpu_index.prefix_bytes != prefix_bytes:
            raise ConfigError(
                f"GPU index prefix_bytes {gpu_index.prefix_bytes} != "
                f"engine prefix_bytes {prefix_bytes}")
        self.bin_table = BinTable(prefix_bytes=prefix_bytes)
        self.bin_buffer = BinBuffer(prefix_bytes=prefix_bytes,
                                    per_bin_capacity=bin_buffer_capacity,
                                    total_capacity=bin_buffer_total)
        self.gpu_index = gpu_index
        self.metadata = MetadataStore()
        self._prefix_bytes = prefix_bytes
        # -- Fig. 1 edge counters --
        # Every counter any consumer bumps or reads is seeded here, so
        # reports always carry the full key set (a counter that never
        # fired reads 0, not KeyError/absent) and bump sites can use a
        # plain += instead of re-deriving the default with .get().
        self.counters = {key: 0 for key in DEDUP_COUNTER_KEYS}
        self._buffer_miss = IndexOutcome(False, "unique",
                                         DEFAULT_COSTS.bin_buffer_probe)

    # -- stage costs --------------------------------------------------------

    def ingest_cycles(self, chunk: Chunk) -> float:
        """CPU cycles for the fixed-size chunking + hashing stages of
        one chunk."""
        return (DEFAULT_COSTS.chunking_cycles(chunk.size)
                + DEFAULT_COSTS.sha1_cycles(chunk.size))

    # -- indexing (CPU path) ----------------------------------------------------

    def cpu_index(self, chunk: Chunk) -> IndexOutcome:
        """Bin-buffer probe, then bin-tree probe (Fig. 1's CPU path)."""
        view = decompose(chunk.require_fingerprint(), self._prefix_bytes)
        physical_id = self.bin_buffer.lookup_view(view)
        if physical_id is not None:
            return self._buffer_hit(chunk, physical_id)
        depth, physical_id = self.bin_table.probe_view(view)
        cycles = (DEFAULT_COSTS.bin_buffer_probe
                  + DEFAULT_COSTS.bin_tree_probe(depth))
        if self.metadata.lookup(physical_id) is not None:
            self.counters[CTR_TREE_HITS] += 1
            chunk.is_duplicate = True
            return IndexOutcome(True, "tree", cycles, physical_id)
        chunk.is_duplicate = False
        return IndexOutcome(False, "unique", cycles)

    def cpu_index_partial(self, chunk: Chunk) -> IndexOutcome:
        """Buffer-probe-only indexing, used after a *definitive* GPU miss.

        When the GPU index has never evicted, it mirrors every entry that
        ever reached the bin tree, so a GPU miss proves the tree would
        miss too — only the bin buffer (entries newer than the last
        flush) still needs checking.
        """
        view = decompose(chunk.require_fingerprint(), self._prefix_bytes)
        physical_id = self.bin_buffer.lookup_view(view)
        if physical_id is not None:
            return self._buffer_hit(chunk, physical_id)
        chunk.is_duplicate = False
        return self._buffer_miss

    def _buffer_hit(self, chunk: Chunk, physical_id: int) -> IndexOutcome:
        self.counters[CTR_BUFFER_HITS] += 1
        chunk.is_duplicate = True
        return IndexOutcome(True, "buffer", DEFAULT_COSTS.bin_buffer_probe,
                            physical_id)

    def note_gpu_hit(self, chunk: Chunk) -> Optional[float]:
        """Record a GPU-index duplicate, whose copy an untimed host tree
        probe names (GPU bins hold no ids); returns metadata cycles.

        None when the named copy was swept: the hit is stale, a miss,
        and the caller indexes the chunk on the CPU path.
        """
        physical_id = self.bin_table.lookup(chunk.require_fingerprint())
        if self.metadata.lookup(physical_id) is None:
            return None
        self.counters[CTR_GPU_HITS] += 1
        chunk.is_duplicate = True
        return self.commit_duplicate(chunk, physical_id)

    # -- commits ------------------------------------------------------------

    def commit_duplicate(self, chunk: Chunk,
                         physical_id: Optional[int]) -> float:
        """Map a duplicate chunk onto the stored copy its verdict named
        by ``physical_id``; returns cycles."""
        compressed_size = self.metadata.lookup(physical_id)
        if compressed_size is None:
            raise DedupError("duplicate verdict names no stored chunk")
        self.metadata.map_logical(chunk.offset, physical_id)
        chunk.compressed_size = compressed_size
        return DEFAULT_COSTS.metadata_update

    def commit_unique(self, chunk: Chunk,
                      blob: Optional[bytes] = None,
                      checksum: Optional[int] = None
                      ) -> tuple[float, Optional[DestageBatch], int, bool]:
        """Store a compressed unique chunk; stage its fingerprint.

        Returns ``(cycles, destage_batch_or_none, physical_id,
        was_actually_unique)``.  Two in-flight copies of the same content
        can both take the unique path; the commit re-probes the bins
        (between restarts they hold every stored unique) and downgrades
        the loser to a duplicate — standard inline-dedup practice.
        """
        view = decompose(chunk.require_fingerprint(), self._prefix_bytes)
        physical_id = self._stored_id(view)
        if physical_id is not None:
            # Lost the in-flight race: another worker stored it first.
            self.counters[CTR_RACE_DUPLICATES] += 1
            cycles = self.commit_duplicate(chunk, physical_id)
            return cycles, None, physical_id, False

        if chunk.compressed_size is None:
            chunk.compressed_size = chunk.size
        self.counters[CTR_UNIQUES] += 1
        physical_id = self.metadata.store_unique(
            chunk.size, chunk.compressed_size, blob=blob, checksum=checksum)
        self.metadata.map_logical(chunk.offset, physical_id)
        cycles = (DEFAULT_COSTS.bin_buffer_insert
                  + DEFAULT_COSTS.metadata_update
                  + DEFAULT_COSTS.flush_amortized_per_unique)
        # The staged value is the index entry's metadata: the physical
        # id, a plain int the cyclic collector never walks.
        flush = self.bin_buffer.add_view(view, physical_id)
        batch = self._apply_flush(flush) if flush is not None else None
        return cycles, batch, physical_id, True

    def _stored_id(self, view) -> Optional[int]:
        """The live id the bins name for a fingerprint's view: bin
        buffer, then bin tree; None when neither names a held chunk."""
        physical_id = self.bin_buffer.lookup_view(view)
        if physical_id is None:
            physical_id = self.bin_table.probe_view(view)[1]
        return None if self.metadata.lookup(physical_id) is None \
            else physical_id

    def new_contents(self, chunks: list[Chunk], *known) -> list[Chunk]:
        """The first payload chunk of each fingerprint in ``chunks`` that
        neither the bins (live ids only) nor any container in ``known``
        holds: the contents a commit would store.  Untimed and
        uncounted: no counter moves."""
        prefix_bytes = self._prefix_bytes
        seen: set[bytes] = set()
        found = []
        for chunk in chunks:
            fingerprint = chunk.fingerprint
            if chunk.payload is None or fingerprint in seen \
                    or any(fingerprint in held for held in known):
                continue
            seen.add(fingerprint)
            if self._stored_id(decompose(fingerprint, prefix_bytes)) is None:
                found.append(chunk)
        return found

    def _apply_flush(self, flush) -> DestageBatch:
        """Move a flushed bin into the bin tree and the GPU bins.

        The flush's staged (suffix, physical id) pairs are already the
        views both installs take; the sizes come from the chunk table.
        """
        self.counters[CTR_FLUSHES] += 1
        staged = flush.staged
        self.bin_table.install_views(flush.bin_id, staged)
        lookup = self.metadata.lookup
        payload = sum(lookup(physical_id) for _, physical_id in staged)
        if self.gpu_index is not None:
            self.gpu_index.install_views(flush.bin_id,
                                         [suffix for suffix, _ in staged])
        return DestageBatch(bin_id=flush.bin_id,
                            chunk_count=flush.count,
                            payload_bytes=payload)

    def drain(self) -> list[DestageBatch]:
        """Flush every partially filled bin (end of stream)."""
        return [self._apply_flush(event)
                for event in self.bin_buffer.flush_all()]

    def sweep(self) -> int:
        """Collect unreferenced chunks and drop their ids from the bin
        buffer; returns bytes reclaimed.  Stale bin-tree entries miss
        until a re-store's flush updates them in place."""
        reclaimed = self.metadata.sweep_unreferenced()
        self.bin_buffer.retain(self.metadata.lookup)
        return reclaimed

    def restart(self) -> list[DestageBatch]:
        """Simulate a clean restart: destage staged data, lose the index.

        The paper keeps index entries "in memory space only, not disk
        space", so after a restart the engine can no longer find any
        previously stored duplicate — rewritten content is stored again
        (quantified by experiment A9).  Stored data itself survives:
        logical offsets still resolve through the metadata.

        Returns the final destage batches of the shutdown drain.
        """
        batches = self.drain()
        self.bin_table = BinTable(
            prefix_bytes=self.bin_table.prefix_bytes,
            min_degree=self.bin_table.min_degree)
        if self.gpu_index is not None:
            self.gpu_index.clear()
        self.counters[CTR_RESTARTS] += 1
        return batches
