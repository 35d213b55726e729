"""ReducedVolume: a functional block volume with inline data reduction.

The user-facing glue for payload-mode use: writes run the real reduction
path (chunk, SHA-1, bin-buffer/bin-tree indexing, LZ compression), reads
resolve the logical map and *really decompress*, so ``read(write(x)) ==
x`` is a provable property — several tests and the quickstart example
prove it.

This class is deliberately untimed (no simulation environment): it is
the API a downstream application would use, while the timed
:class:`~repro.core.pipeline.ReductionPipeline` answers the performance
questions.  Both are built from the same engine pieces.
"""

from __future__ import annotations

import zlib
from typing import Optional

from repro.compression.delta import DeltaCodec, SimilarityIndex, sketch
from repro.compression.parallel_cpu import Codec, CpuCompressor
from repro.dedup.chunking import FixedChunker
from repro.dedup.engine import DedupEngine
from repro.dedup.hashing import fingerprint_chunk
from repro.errors import BlockRangeError, MetadataError, ReproError
from repro.obs import MetricsRegistry
from repro.types import DEFAULT_CHUNK_SIZE


class ReducedVolume:
    """Block volume whose write path deduplicates and compresses inline."""

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 codec: Optional[Codec] = None,
                 prefix_bytes: int = 2,
                 bin_buffer_capacity: int = 64,
                 bin_buffer_total: Optional[int] = 4096,
                 enable_compression: bool = True,
                 verify_checksums: bool = True,
                 enable_delta: bool = False):
        self.chunk_size = chunk_size
        self.enable_compression = enable_compression
        #: End-to-end integrity: store a plaintext CRC-32 per unique
        #: chunk and verify it on every read.
        self.verify_checksums = verify_checksums
        #: Delta-compress near-duplicates against resemblant stored
        #: chunks (DEC-class).  Only non-delta chunks register in the
        #: similarity index, so reconstruction chains have depth <= 1.
        self.enable_delta = enable_delta
        self._similarity = SimilarityIndex() if enable_delta else None
        self._delta_codec = DeltaCodec()
        #: Chunks stored as deltas (observability).
        self.deltas_stored = 0
        self.chunker = FixedChunker(chunk_size)
        self.engine = DedupEngine(prefix_bytes=prefix_bytes,
                                  bin_buffer_capacity=bin_buffer_capacity,
                                  bin_buffer_total=bin_buffer_total)
        self.compressor = CpuCompressor(codec=codec)
        #: Sequential-destage ledger: bytes grouped by flushed bin.
        self.destaged_bytes = 0

    # -- write path (the paper's Fig. 1, functionally) -------------------------

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset`` (must be chunk-aligned)."""
        if offset % self.chunk_size != 0:
            raise BlockRangeError(
                f"offset {offset} is not {self.chunk_size}-aligned")
        if not data:
            return
        for chunk in self.chunker.chunk(data, base_offset=offset):
            self._write_chunk(chunk)

    def _write_chunk(self, chunk) -> None:
        fingerprint_chunk(chunk)
        outcome = self.engine.cpu_index(chunk)
        if outcome.duplicate:
            self.engine.commit_duplicate(chunk)
            return
        delta_base_id = None
        chunk_sketch = None
        blob = None
        if self._similarity is not None:
            chunk_sketch = sketch(chunk.payload)
            base_id = self._similarity.find_similar(chunk_sketch)
            if base_id is not None:
                base = self.engine.metadata.get_record(base_id)
                base_plain = self._materialize(base)
                delta = self._delta_codec.encode(base_plain,
                                                 chunk.payload)
                if len(delta) < chunk.size // 2:
                    blob = delta
                    chunk.compressed_size = len(delta)
                    delta_base_id = base_id
        if delta_base_id is None:
            if self.enable_compression:
                result = self.compressor.compress(chunk)
                blob = chunk.payload if result.stored_raw else result.blob
            else:
                chunk.compressed_size = chunk.size
                blob = chunk.payload
        checksum = (zlib.crc32(chunk.payload)
                    if self.verify_checksums else None)
        _cycles, batch, was_unique = self.engine.commit_unique(
            chunk, blob, checksum=checksum)
        if was_unique:
            record = self.engine.metadata.lookup(chunk.fingerprint)
            if delta_base_id is not None:
                record.delta_base_id = delta_base_id
                self.engine.metadata.add_delta_ref(delta_base_id)
                self.deltas_stored += 1
            elif self._similarity is not None:
                # Only full (non-delta) chunks serve as delta bases.
                self._similarity.insert(record.physical_id, chunk_sketch)
        if batch is not None:
            self.destaged_bytes += batch.payload_bytes

    # -- read path ----------------------------------------------------------

    def read(self, offset: int, size: int) -> bytes:
        """Read ``size`` bytes from ``offset`` (both chunk-aligned extents).

        Raises :class:`~repro.errors.MetadataError` for unmapped ranges.
        """
        if offset % self.chunk_size != 0:
            raise BlockRangeError(
                f"offset {offset} is not {self.chunk_size}-aligned")
        parts: list[bytes] = []
        have, position = 0, offset
        while have < size:
            record = self.engine.metadata.resolve(position)
            plaintext = self._materialize(record)
            if (self.verify_checksums and record.checksum is not None
                    and zlib.crc32(plaintext) != record.checksum):
                raise MetadataError(
                    f"checksum mismatch for chunk at logical {position} "
                    f"(physical id {record.physical_id}): stored data "
                    "is corrupt")
            parts.append(plaintext)
            have += len(plaintext)
            position += record.size
        return b"".join(parts)[:size]  # cut only when the last overshoots

    def clone_range(self, src_offset: int, dst_offset: int,
                    size: int) -> None:
        """Instant copy: point ``dst`` at ``src``'s chunks by reference.

        No data moves — refcounts go up, exactly how dedup-aware
        primary stores implement snapshots and VM clones.  Later writes
        to either range diverge naturally (the overwrite path drops one
        reference and maps new content).  Extents must be chunk-aligned
        and fully mapped.
        """
        if src_offset % self.chunk_size or dst_offset % self.chunk_size \
                or size % self.chunk_size:
            raise BlockRangeError("clone extents must be chunk-aligned")
        if not (dst_offset + size <= src_offset
                or src_offset + size <= dst_offset):
            raise BlockRangeError("clone ranges must not overlap")
        metadata = self.engine.metadata
        for delta in range(0, size, self.chunk_size):
            record = metadata.resolve(src_offset + delta)
            metadata.map_logical_record(dst_offset + delta, record,
                                        record.size)

    def discard(self, offset: int, size: int) -> None:
        """TRIM a chunk-aligned extent."""
        if offset % self.chunk_size or size % self.chunk_size:
            raise BlockRangeError("discard extents must be chunk-aligned")
        for position in range(offset, offset + size, self.chunk_size):
            self.engine.metadata.unmap_logical(position)

    def _materialize(self, record) -> bytes:
        """Plaintext of a stored record (decompress or delta-apply)."""
        if record.blob is None:
            raise MetadataError(
                f"chunk {record.physical_id} has no stored payload "
                "(descriptor-mode record?)")
        if record.delta_base_id is not None:
            base = self.engine.metadata.get_record(record.delta_base_id)
            return self._delta_codec.decode(self._materialize(base),
                                            record.blob)
        if record.compressed_size < record.size:
            return self.compressor.decompress(record.blob)
        return record.blob

    def scrub(self) -> dict[str, int]:
        """Background-integrity scan: verify every mapped chunk's CRC.

        Walks the logical map, decompresses each stored chunk once, and
        checks it against its stored checksum — what a primary array's
        patrol scrubber does to catch silent bit-rot before a user read
        hits it.  Returns counters; corrupt offsets are reported, not
        raised, so one bad chunk does not abort the scan.
        """
        scanned = verified = corrupt = unverifiable = 0
        corrupt_offsets: list[int] = []
        verdicts: dict[int, bool] = {}  # by physical id, this scan only
        for offset in sorted(self.engine.metadata._logical):
            record = self.engine.metadata.resolve(offset)
            scanned += 1
            if record.blob is None or record.checksum is None:
                unverifiable += 1
                continue
            ok = verdicts.get(record.physical_id)
            if ok is None:
                try:
                    ok = zlib.crc32(self._materialize(record)) \
                        == record.checksum
                except ReproError:  # all a corrupt container may raise
                    ok = False
                verdicts[record.physical_id] = ok
            if ok:
                verified += 1
            else:
                corrupt += 1
                corrupt_offsets.append(offset)
        return {"scanned": scanned, "verified": verified,
                "corrupt": corrupt, "unverifiable": unverifiable,
                "corrupt_offsets": corrupt_offsets}

    # -- lifecycle -------------------------------------------------------------

    def restart(self) -> None:
        """Clean restart: staged data destages, the RAM index is lost.

        Data remains readable; previously stored content can no longer
        be deduplicated against (paper §3.1's RAM-only index policy).
        """
        for batch in self.engine.restart():
            self.destaged_bytes += batch.payload_bytes

    # -- accounting ----------------------------------------------------------

    @property
    def logical_bytes(self) -> int:
        """Bytes the volume serves."""
        return self.engine.metadata.logical_bytes

    @property
    def physical_bytes(self) -> int:
        """Bytes the stored chunks occupy after reduction."""
        return self.engine.metadata.physical_bytes

    def reduction_ratio(self) -> float:
        """Combined dedup x compression space win."""
        return self.engine.metadata.reduction_ratio()

    def dedup_ratio(self) -> float:
        """Deduplication-only space win."""
        return self.engine.metadata.dedup_ratio()

    def metrics(self,
                registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """Publish the volume's statistics into a metrics registry.

        Absorbs the dedup engine's counter dict, the compressor's
        running totals, and the volume-level ledgers under dotted
        namespaces (``dedup.*``, ``compress.cpu.*``, ``volume.*``) so
        callers read one deterministic snapshot instead of spelunking
        component objects.  Idempotent: re-publishing into the same
        registry applies only the increase since the last call.
        """
        if registry is None:
            registry = MetricsRegistry()
        registry.absorb_counters("dedup", self.engine.counters)
        registry.absorb_counters("compress.cpu", self.compressor.stats())
        registry.absorb_counters("volume", {
            "deltas_stored": self.deltas_stored,
            "destaged_bytes": self.destaged_bytes,
        })
        # Mapped-byte totals shrink on discard/TRIM, so they are gauges.
        registry.gauge("volume.logical_bytes").set(float(self.logical_bytes))
        registry.gauge("volume.physical_bytes").set(float(self.physical_bytes))
        registry.gauge("volume.reduction_ratio").set(self.reduction_ratio())
        registry.gauge("volume.dedup_ratio").set(self.dedup_ratio())
        return registry
