"""Chunk metadata: the chunk table, the logical map, and space accounting.

The deduplication destage stage records every chunk here.  The store
answers the two questions a primary storage system must always answer:

* *reconstruction* — which stored chunk backs logical offset X?
* *space accounting* — how many logical bytes are served from how many
  physical bytes (the deduplication and compression ratios the workload
  dials in must come back out of this ledger, which several tests check).

Structure mirrors a real primary store: chunks live in a table keyed by
**physical id** (the durable side), and nothing is keyed by fingerprint:
finding a chunk by content is the job of the RAM-only index the paper
describes, the bins of :mod:`repro.dedup`, whose entries carry the id.
Like the paper's index, it can be lost without losing data: after a
restart old chunks remain readable by offset but can no longer be found
by content, so rewritten duplicates get stored twice ("the deduplication
module cannot find some duplicate data.  However that is not a big
deal" — quantified by experiment A9).

In payload mode records also carry the compressed blob so a volume read
can really decompress and return the original bytes, plus a CRC of the
plaintext for end-to-end verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import MetadataError


@dataclass(slots=True)
class ChunkRecord:
    """One stored chunk."""

    physical_id: int
    size: int
    compressed_size: int
    refcount: int = 1
    #: Compressed payload (payload mode only).
    blob: Optional[bytes] = None
    #: CRC-32 of the *plaintext*, for end-to-end read verification.
    checksum: Optional[int] = None
    #: When set, ``blob`` is a delta against this base chunk's plaintext.
    delta_base_id: Optional[int] = None
    #: Delta records referencing this chunk as their base.  A base stays
    #: live (and its bytes accounted) while deltas depend on it, even at
    #: logical refcount zero.
    delta_refs: int = 0

    @property
    def live(self) -> bool:
        return self.refcount > 0 or self.delta_refs > 0


class MetadataStore:
    """Physical chunk table + logical map, keyed by physical id."""

    __slots__ = ("_by_id", "_logical", "_zombies", "_next_physical",
                 "logical_bytes", "physical_bytes")

    def __init__(self) -> None:
        #: The durable side: physical id -> record.
        self._by_id: dict[int, ChunkRecord] = {}
        #: Logical offset -> physical id.
        self._logical: dict[int, int] = {}
        #: Physical ids of records that are not ``live``: what the next
        #: :meth:`sweep_unreferenced` collects.
        self._zombies: set[int] = set()
        self._next_physical = 0
        # -- space ledger --
        self.logical_bytes = 0
        self.physical_bytes = 0

    # -- chunk table ----------------------------------------------------------

    def lookup(self, physical_id: Optional[int]) -> Optional[ChunkRecord]:
        """Record with ``physical_id``; None once swept (or for None).

        Ids are never reused, so this is also the liveness probe of an
        index hit: None means the hit named a chunk that is gone.
        """
        return self._by_id.get(physical_id)

    def store_unique(self, size: int, compressed_size: int,
                     blob: Optional[bytes] = None,
                     checksum: Optional[int] = None) -> ChunkRecord:
        """Record a newly destaged unique chunk (born at refcount 0)."""
        if compressed_size <= 0 or size <= 0:
            raise MetadataError("invalid chunk sizes")
        record = ChunkRecord(
            physical_id=self._next_physical,
            size=size,
            compressed_size=compressed_size,
            refcount=0,
            blob=blob,
            checksum=checksum,
        )
        self._by_id[record.physical_id] = record
        self._zombies.add(record.physical_id)
        self._next_physical += 1
        # The first map_logical accounts its bytes.
        return record

    def _revive(self, record: ChunkRecord) -> None:
        if not record.live:
            self.physical_bytes += record.compressed_size
            self._zombies.discard(record.physical_id)

    def _retire(self, record: ChunkRecord) -> None:
        if not record.live:
            self.physical_bytes -= record.compressed_size
            self._zombies.add(record.physical_id)

    def add_delta_ref(self, physical_id: int) -> ChunkRecord:
        """A delta record now depends on this chunk as its base."""
        record = self._by_id[physical_id]
        self._revive(record)
        record.delta_refs += 1
        return record

    def _drop_ref(self, record: ChunkRecord) -> ChunkRecord:
        """Decrement ``record``'s refcount.  At zero the record becomes a
        zombie awaiting GC; the record (and blob) stay until
        :meth:`sweep_unreferenced`."""
        if record.refcount <= 0:
            raise MetadataError("refcount underflow")
        record.refcount -= 1
        self._retire(record)
        return record

    def _drop_delta_ref(self, physical_id: int) -> None:
        record = self._by_id.get(physical_id)
        if record is None:
            return
        if record.delta_refs <= 0:
            raise MetadataError("delta-ref underflow")
        record.delta_refs -= 1
        self._retire(record)

    def sweep_unreferenced(self) -> int:
        """Garbage-collect zombie records; returns bytes reclaimed.

        An index entry naming a swept id is stale: :meth:`lookup`
        answers None for it, which every index reads as a miss.
        """
        # Ascending physical id is the table's own order; a base that
        # a swept delta releases lands in the emptied set for next time.
        zombies = sorted(self._zombies)
        self._zombies.clear()
        reclaimed = 0
        for physical_id in zombies:
            record = self._by_id.pop(physical_id)
            reclaimed += record.compressed_size
            if record.delta_base_id is not None:
                # The swept delta releases its base (which may become a
                # zombie itself, collected by the next sweep).
                self._drop_delta_ref(record.delta_base_id)
        return reclaimed

    # -- logical map -----------------------------------------------------------

    def map_logical(self, offset: int, record: ChunkRecord,
                    size: int) -> None:
        """Point logical ``offset`` at the stored chunk ``record``.

        The one mapping path: a unique's first reference, a duplicate
        an index found, a clone of old data the index can no longer
        find (post-restart), a compaction remap.  Referencing an
        unreferenced ("zombie") record resurrects it, so index hits
        after overwrites revive the stored chunk instead of dangling.
        Acquire-before-release: on an overwrite, the new reference is
        taken first so that rewriting an offset with the *same* content
        never transiently frees the chunk it still needs.
        """
        if self._by_id.get(record.physical_id) is not record:
            raise MetadataError("record is not part of this store")
        if record.refcount <= 0 and record.delta_refs <= 0:
            # _revive inlined: every chunk a run writes maps here.
            self.physical_bytes += record.compressed_size
            self._zombies.discard(record.physical_id)
        record.refcount += 1
        old_id = self._logical.get(offset)
        if old_id is not None:
            old_record = self._by_id[old_id]
            self._drop_ref(old_record)
            self.logical_bytes -= old_record.size
        self._logical[offset] = record.physical_id
        self.logical_bytes += size

    def resolve(self, offset: int) -> ChunkRecord:
        """Record backing logical ``offset`` (survives restarts)."""
        physical_id = self._logical.get(offset)
        if physical_id is None:
            raise MetadataError(f"logical offset {offset} is unmapped")
        record = self._by_id.get(physical_id)
        if record is None:
            raise MetadataError(
                f"logical offset {offset} points at a swept chunk")
        return record

    def unmap_logical(self, offset: int) -> None:
        """Remove the mapping at ``offset`` (TRIM semantics)."""
        physical_id = self._logical.pop(offset, None)
        if physical_id is None:
            raise MetadataError(f"logical offset {offset} is unmapped")
        record = self._drop_ref(self._by_id[physical_id])
        self.logical_bytes -= record.size

    # -- accounting ---------------------------------------------------------

    @property
    def unique_chunks(self) -> int:
        """Number of distinct *live* stored chunks."""
        return len(self._by_id) - len(self._zombies)

    @property
    def zombie_chunks(self) -> int:
        """Unreferenced records awaiting garbage collection."""
        return len(self._zombies)

    def reduction_ratio(self) -> float:
        """logical/physical bytes: the combined dedup x compression win."""
        if self.physical_bytes <= 0:
            return 1.0 if self.logical_bytes == 0 else float("inf")
        return self.logical_bytes / self.physical_bytes

    def dedup_ratio(self) -> float:
        """logical bytes / live stored pre-compression bytes.

        Post-restart duplicate storage shows up here as a lower ratio —
        experiment A9's metric.
        """
        unique_raw = sum(r.size for r in self._by_id.values()
                         if r.live)
        if unique_raw <= 0:
            return 1.0 if self.logical_bytes == 0 else float("inf")
        return self.logical_bytes / unique_raw

    def verify_invariants(self) -> None:
        """Cross-check the ledger against the raw tables (test hook)."""
        physical = sum(r.compressed_size for r in self._by_id.values()
                       if r.live)
        if physical != self.physical_bytes:
            raise MetadataError(
                f"physical ledger {self.physical_bytes} != table {physical}")
        scanned = {r.physical_id for r in self._by_id.values()
                   if not r.live}
        if scanned != self._zombies:
            raise MetadataError(
                f"zombie set drift on chunks "
                f"{sorted(scanned ^ self._zombies)[:8]}")
        refs = sum(r.refcount for r in self._by_id.values())
        if refs != len(self._logical):
            raise MetadataError(
                f"refcount total {refs} != logical mappings "
                f"{len(self._logical)}")
        expected_delta_refs: dict[int, int] = {}
        for record in self._by_id.values():
            if record.delta_base_id is not None:
                expected_delta_refs[record.delta_base_id] = \
                    expected_delta_refs.get(record.delta_base_id, 0) + 1
        for record in self._by_id.values():
            if record.delta_refs != expected_delta_refs.get(
                    record.physical_id, 0):
                raise MetadataError(
                    f"delta-ref drift on chunk {record.physical_id}")
        logical = sum(self._by_id[pid].size
                      for pid in self._logical.values())
        if logical != self.logical_bytes:
            raise MetadataError(
                f"logical ledger {self.logical_bytes} != map {logical}")
