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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cpu.costs import CpuCosts, DEFAULT_COSTS
from repro.dedup.bin_buffer import BinBuffer
from repro.dedup.bins import BinTable
from repro.dedup.gpu_index import GpuBinIndex
from repro.dedup.index_base import decompose
from repro.errors import DedupError
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


@dataclass(slots=True)
class IndexOutcome:
    """Result of running a chunk through the CPU indexing path."""

    duplicate: bool
    #: Where the decision fell: "buffer", "tree", or "unique".
    path: str
    cpu_cycles: float


@dataclass(slots=True)
class DestageBatch:
    """One flushed bin's worth of compressed data, written sequentially."""

    bin_id: int
    chunk_count: int
    payload_bytes: int


@dataclass(slots=True)
class _StagedInfo:
    """Bin-buffer value: what a flush needs to know per staged chunk."""

    size: int
    compressed_size: int


class DedupEngine:
    """Functional dedup state with per-operation cycle costs."""

    __slots__ = ("costs", "bin_table", "bin_buffer", "gpu_index",
                 "metadata", "_prefix_bytes", "counters")

    def __init__(self, prefix_bytes: int = 2, btree_min_degree: int = 16,
                 bin_buffer_capacity: int = 64,
                 bin_buffer_total: Optional[int] = None,
                 gpu_index: Optional[GpuBinIndex] = None,
                 metadata: Optional[MetadataStore] = None,
                 costs: CpuCosts = DEFAULT_COSTS):
        self.costs = costs
        self.bin_table = BinTable(prefix_bytes=prefix_bytes,
                                  min_degree=btree_min_degree)
        self.bin_buffer = BinBuffer(prefix_bytes=prefix_bytes,
                                    per_bin_capacity=bin_buffer_capacity,
                                    total_capacity=bin_buffer_total)
        self.gpu_index = gpu_index
        self.metadata = metadata if metadata is not None else MetadataStore()
        self._prefix_bytes = prefix_bytes
        # -- Fig. 1 edge counters --
        # Every counter any consumer bumps or reads is seeded here, so
        # reports always carry the full key set (a counter that never
        # fired reads 0, not KeyError/absent) and bump sites can use a
        # plain += instead of re-deriving the default with .get().
        self.counters = {key: 0 for key in DEDUP_COUNTER_KEYS}

    # -- stage costs --------------------------------------------------------

    def ingest_cycles(self, chunk: Chunk) -> float:
        """CPU cycles for the fixed-size chunking + hashing stages of
        one chunk."""
        return (self.costs.chunking_cycles(chunk.size)
                + self.costs.sha1_cycles(chunk.size))

    # -- indexing (CPU path) ----------------------------------------------------

    def cpu_index(self, chunk: Chunk) -> IndexOutcome:
        """Bin-buffer probe, then bin-tree probe (Fig. 1's CPU path)."""
        view = decompose(chunk.require_fingerprint(), self._prefix_bytes)
        cycles = self.costs.bin_buffer_probe
        if self.bin_buffer.lookup_view(view) is not None:
            self.counters[CTR_BUFFER_HITS] += 1
            chunk.is_duplicate = True
            return IndexOutcome(True, "buffer", cycles)
        depth, value = self.bin_table.probe_view(view)
        cycles += self.costs.bin_tree_probe(depth)
        if value is not None:
            self.counters[CTR_TREE_HITS] += 1
            chunk.is_duplicate = True
            return IndexOutcome(True, "tree", cycles)
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
        cycles = self.costs.bin_buffer_probe
        if self.bin_buffer.lookup_view(view) is not None:
            self.counters[CTR_BUFFER_HITS] += 1
            chunk.is_duplicate = True
            return IndexOutcome(True, "buffer", cycles)
        chunk.is_duplicate = False
        return IndexOutcome(False, "unique", cycles)

    def note_gpu_hit(self, chunk: Chunk) -> float:
        """Record a GPU-index duplicate; returns metadata-update cycles."""
        self.counters[CTR_GPU_HITS] += 1
        chunk.is_duplicate = True
        return self.commit_duplicate(chunk)

    # -- commits ------------------------------------------------------------

    def commit_duplicate(self, chunk: Chunk) -> float:
        """Map a duplicate chunk onto its stored copy; returns cycles."""
        fingerprint = chunk.require_fingerprint()
        record = self.metadata.lookup(fingerprint)
        if record is None:
            raise DedupError(
                "duplicate verdict for a fingerprint with no stored chunk")
        self.metadata.map_logical(chunk.offset, fingerprint, chunk.size)
        chunk.compressed_size = record.compressed_size
        return self.costs.metadata_update

    def commit_unique(self, chunk: Chunk,
                      blob: Optional[bytes] = None,
                      checksum: Optional[int] = None
                      ) -> tuple[float, Optional[DestageBatch], bool]:
        """Store a compressed unique chunk; stage its fingerprint.

        Returns ``(cycles, destage_batch_or_none, was_actually_unique)``.
        Two in-flight copies of the same content can both take the unique
        path; the commit revalidates against metadata and downgrades the
        loser to a duplicate — standard inline-dedup practice.
        """
        fingerprint = chunk.require_fingerprint()
        if self.metadata.lookup(fingerprint) is not None:
            # Lost the in-flight race: another worker stored it first.
            self.counters[CTR_RACE_DUPLICATES] += 1
            cycles = self.commit_duplicate(chunk)
            return cycles, None, False

        if chunk.compressed_size is None:
            chunk.compressed_size = chunk.size
        self.counters[CTR_UNIQUES] += 1
        self.metadata.store_unique(fingerprint, chunk.size,
                                   chunk.compressed_size, blob=blob,
                                   checksum=checksum)
        self.metadata.map_logical(chunk.offset, fingerprint, chunk.size)
        cycles = (self.costs.bin_buffer_insert
                  + self.costs.metadata_update
                  + self.costs.flush_amortized_per_unique)
        flush = self.bin_buffer.add_view(
            decompose(fingerprint, self._prefix_bytes),
            _StagedInfo(size=chunk.size,
                        compressed_size=chunk.compressed_size))
        batch = self._apply_flush(flush) if flush is not None else None
        return cycles, batch, True

    def _apply_flush(self, flush) -> DestageBatch:
        """Move a flushed bin into the bin tree and the GPU bins.

        The flush's staged (suffix, value) pairs are already the views
        both installs take, so nothing is re-assembled or re-sliced.
        """
        self.counters[CTR_FLUSHES] += 1
        staged = flush.staged
        self.bin_table.install_views(flush.bin_id, staged)
        payload = sum(info.compressed_size for _, info in staged)
        gpu = self.gpu_index
        if gpu is not None:
            if gpu.prefix_bytes == self._prefix_bytes:
                gpu.install_views(flush.bin_id,
                                  [suffix for suffix, _ in staged])
            else:
                # A GPU index keyed on another prefix width cuts its own
                # views from the full fingerprints.
                prefix = flush.bin_id.to_bytes(self._prefix_bytes, "big")
                gpu.update_from_flush(
                    [(prefix + suffix, None) for suffix, _ in staged])
        return DestageBatch(bin_id=flush.bin_id,
                            chunk_count=flush.count,
                            payload_bytes=payload)

    def drain(self) -> list[DestageBatch]:
        """Flush every partially filled bin (end of stream)."""
        return [self._apply_flush(event)
                for event in self.bin_buffer.flush_all()]

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
        self.metadata.detach_fingerprint_index()
        self.counters[CTR_RESTARTS] += 1
        return batches

    # -- reporting --------------------------------------------------------

    def dedup_ratio(self) -> float:
        """Achieved logical/unique ratio from the metadata ledger."""
        return self.metadata.dedup_ratio()

    def index_entries(self) -> int:
        """Entries across tree + buffer (GPU mirrors a subset)."""
        return len(self.bin_table) + len(self.bin_buffer)
