"""Chunk metadata: logical map, refcounts, and space accounting.

The deduplication destage stage records every chunk here.  The store
answers the two questions a primary storage system must always answer:

* *reconstruction* — which stored chunk backs logical offset X?
* *space accounting* — how many logical bytes are served from how many
  physical bytes (the deduplication and compression ratios the workload
  dials in must come back out of this ledger, which several tests check).

Structure mirrors a real primary store: chunks live in a table keyed by
**physical id** (the durable side); the **fingerprint map** on top of it
is exactly the RAM-resident index the paper describes — and, like the
paper's index, it can be lost without losing data:
:meth:`MetadataStore.detach_fingerprint_index` models a restart after
which old chunks remain readable by offset but can no longer be found by
content, so rewritten duplicates get stored twice ("the deduplication
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

    fingerprint: bytes
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
    """Physical chunk table + fingerprint map + logical map."""

    __slots__ = ("_by_id", "_by_fingerprint", "_logical", "_zombies",
                 "_next_physical", "logical_bytes", "physical_bytes",
                 "restarts")

    def __init__(self) -> None:
        #: The durable side: physical id -> record.
        self._by_id: dict[int, ChunkRecord] = {}
        #: The RAM index side: fingerprint -> physical id.
        self._by_fingerprint: dict[bytes, int] = {}
        #: Logical offset -> physical id.
        self._logical: dict[int, int] = {}
        #: Physical ids of records that are not ``live``: what the next
        #: :meth:`sweep_unreferenced` collects.
        self._zombies: set[int] = set()
        self._next_physical = 0
        # -- space ledger --
        self.logical_bytes = 0
        self.physical_bytes = 0
        #: Restarts simulated so far (fingerprint-index losses).
        self.restarts = 0

    # -- unique-chunk table ---------------------------------------------------

    def lookup(self, fingerprint: bytes) -> Optional[ChunkRecord]:
        """Record for ``fingerprint`` if it is *findable by content*.

        After a restart (detached index) old chunks are not findable
        even though they still exist and serve reads.
        """
        physical_id = self._by_fingerprint.get(fingerprint)
        return None if physical_id is None else self._by_id[physical_id]

    def store_unique(self, fingerprint: bytes, size: int,
                     compressed_size: int,
                     blob: Optional[bytes] = None,
                     checksum: Optional[int] = None) -> ChunkRecord:
        """Record a newly destaged unique chunk (born at refcount 0)."""
        if fingerprint in self._by_fingerprint:
            raise MetadataError(
                f"fingerprint {fingerprint.hex()[:12]}... already stored")
        if compressed_size <= 0 or size <= 0:
            raise MetadataError("invalid chunk sizes")
        record = ChunkRecord(
            fingerprint=fingerprint,
            physical_id=self._next_physical,
            size=size,
            compressed_size=compressed_size,
            refcount=0,
            blob=blob,
            checksum=checksum,
        )
        self._by_id[record.physical_id] = record
        self._by_fingerprint[fingerprint] = record.physical_id
        self._zombies.add(record.physical_id)
        self._next_physical += 1
        # The first map_logical's add_reference accounts its bytes.
        return record

    def add_reference(self, fingerprint: bytes) -> ChunkRecord:
        """Bump the refcount of a content-findable chunk.

        Referencing an unreferenced ("zombie") record resurrects it —
        stale index hits after overwrites revive the stored chunk
        instead of dangling.
        """
        record = self.lookup(fingerprint)
        if record is None:
            raise MetadataError(
                f"no findable chunk for {fingerprint.hex()[:12]}...")
        return self._add_ref(record)

    def _revive(self, record: ChunkRecord) -> None:
        if not record.live:
            self.physical_bytes += record.compressed_size
            self._zombies.discard(record.physical_id)

    def _retire(self, record: ChunkRecord) -> None:
        if not record.live:
            self.physical_bytes -= record.compressed_size
            self._zombies.add(record.physical_id)

    def _add_ref(self, record: ChunkRecord) -> ChunkRecord:
        self._revive(record)
        record.refcount += 1
        return record

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

        Callers must invalidate/rebuild any fingerprint index that might
        still point at the swept chunks, or stale hits will dangle.
        """
        # Ascending physical id is the table's own order; a base that
        # a swept delta releases lands in the emptied set for next time.
        zombies = sorted(self._zombies)
        self._zombies.clear()
        reclaimed = 0
        for physical_id in zombies:
            record = self._by_id.pop(physical_id)
            if self._by_fingerprint.get(record.fingerprint) \
                    == record.physical_id:
                del self._by_fingerprint[record.fingerprint]
            reclaimed += record.compressed_size
            if record.delta_base_id is not None:
                # The swept delta releases its base (which may become a
                # zombie itself, collected by the next sweep).
                self._drop_delta_ref(record.delta_base_id)
        return reclaimed

    # -- restart semantics (paper §3.1: RAM-only index) -------------------------

    def detach_fingerprint_index(self) -> int:
        """Simulate a restart: the RAM fingerprint index is gone.

        Every stored chunk remains readable through the logical map, but
        none is findable by content any more; rewritten duplicates will
        be stored again.  Returns the number of index entries lost.
        """
        lost = len(self._by_fingerprint)
        self._by_fingerprint.clear()
        self.restarts += 1
        return lost

    # -- logical map -----------------------------------------------------------

    def map_logical(self, offset: int, fingerprint: bytes, size: int) -> None:
        """Point logical ``offset`` at the chunk with ``fingerprint``.

        Acquire-before-release: on an overwrite, the new reference is
        taken first so that rewriting an offset with the *same* content
        never transiently frees the chunk it still needs.
        """
        record = self.add_reference(fingerprint)
        old_id = self._logical.get(offset)
        if old_id is not None:
            old_record = self._by_id[old_id]
            self._drop_ref(old_record)
            self.logical_bytes -= old_record.size
        self._logical[offset] = record.physical_id
        self.logical_bytes += size

    def map_logical_record(self, offset: int, record: ChunkRecord,
                           size: int) -> None:
        """Point ``offset`` at an already-resolved record.

        The by-record path works even when the fingerprint index cannot
        find the chunk (post-restart), which is what makes clones of old
        data possible.
        """
        if self._by_id.get(record.physical_id) is not record:
            raise MetadataError("record is not part of this store")
        self._add_ref(record)
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

    def get_record(self, physical_id: int) -> ChunkRecord:
        """Record by physical id (delta bases resolve this way)."""
        record = self._by_id.get(physical_id)
        if record is None:
            raise MetadataError(f"no chunk with physical id {physical_id}")
        return record

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
        for fingerprint, physical_id in self._by_fingerprint.items():
            record = self._by_id.get(physical_id)
            if record is None:
                raise MetadataError("index points at a swept chunk")
            if record.fingerprint != fingerprint:
                raise MetadataError("index fingerprint mismatch")
        logical = sum(self._by_id[pid].size
                      for pid in self._logical.values())
        if logical != self.logical_bytes:
            raise MetadataError(
                f"logical ledger {self.logical_bytes} != map {logical}")
