"""Chunk metadata: the chunk table, the logical map, and space accounting.

The deduplication destage stage records every chunk here.  The store
answers the two questions a primary storage system must always answer:

* *reconstruction* — which stored chunk backs logical offset X?
* *space accounting* — how many logical bytes are served from how many
  physical bytes (the deduplication and compression ratios the workload
  dials in must come back out of this ledger, which several tests check).

The chunk table is columnar and only grows, like the log of a
log-structured store: a stored chunk is a row, not an object.  Its
**physical id** is its row number, so ids are dense and never reused.
Size and compressed size are int32 columns (a chunk's size bounds
both), the refcount an int64 one.  A swept chunk's row stays as a
tombstone with compressed size 0, which no stored chunk has.  Sparse
maps keyed by id hold what only some chunks have: in payload mode the
compressed blob a volume read decompresses and a CRC of the plaintext,
and the delta fields only the volume's delta path writes.  The read
side gets :class:`ChunkRecord`, a read-only view built on demand.

The logical map is a block array: logical block ``offset //
DEFAULT_CHUNK_SIZE`` is one int64 slot holding the id that backs it
(-1: unmapped).  Slots come in pages of :data:`PAGE_BLOCKS`, allocated
on first use, so a mapped block costs 8 bytes and a sparse address
space (tenants 16 TiB apart) costs only the pages it touches.  The
block is the only chunk size, so an offset that is not a multiple of it
is rejected rather than aliased onto its block.

Nothing is keyed by fingerprint: finding a chunk by content is the job
of the RAM-only index the paper describes, the bins of
:mod:`repro.dedup`, whose entries carry the id.  Like the paper's
index, it can be lost without losing data: after a restart old chunks
remain readable by offset but can no longer be found by content, so
rewritten duplicates get stored twice ("the deduplication module cannot
find some duplicate data.  However that is not a big deal" — quantified
by experiment A9).
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import NamedTuple, Optional

from repro.errors import MetadataError
from repro.types import DEFAULT_CHUNK_SIZE

#: Slots per page of the logical map: 4 096 blocks (16 MiB of logical
#: space) in a 32 KiB page.
PAGE_BLOCKS = 4096
_PAGE_BYTES = PAGE_BLOCKS * DEFAULT_CHUNK_SIZE
# Both are powers of two, so an offset splits into page and slot by
# shift and mask (floor division and modulo, negative offsets included).
_BLOCK_SHIFT = DEFAULT_CHUNK_SIZE.bit_length() - 1
_PAGE_SHIFT = PAGE_BLOCKS.bit_length() - 1
assert DEFAULT_CHUNK_SIZE == 1 << _BLOCK_SHIFT, DEFAULT_CHUNK_SIZE
assert PAGE_BLOCKS == 1 << _PAGE_SHIFT, PAGE_BLOCKS
_IN_BLOCK = DEFAULT_CHUNK_SIZE - 1
_SLOT = PAGE_BLOCKS - 1
#: What a fresh page is copied from: every slot unmapped.
_UNMAPPED_PAGE = array("q", [-1]) * PAGE_BLOCKS


def _unaligned(offset: int) -> str:
    return (f"logical offset {offset} is not a multiple of the "
            f"{DEFAULT_CHUNK_SIZE}-byte block")


class ChunkRecord(NamedTuple):
    """Read-only view of one stored chunk's row."""

    physical_id: int
    size: int
    compressed_size: int
    refcount: int
    blob: Optional[bytes]
    checksum: Optional[int]
    delta_base_id: Optional[int]
    #: Delta records referencing this chunk as their base.  A base stays
    #: live (and its bytes accounted) while deltas depend on it, even at
    #: logical refcount zero.
    delta_refs: int


class MetadataStore:
    """Columnar chunk table + logical map, keyed by physical id."""

    __slots__ = ("_size", "_compressed", "_refcount", "_blobs",
                 "_checksums", "_delta_base", "_delta_refs", "_pages",
                 "_zombies", "_held", "logical_bytes", "physical_bytes")

    def __init__(self) -> None:
        # -- the chunk table: one row per physical id --
        self._size = array("i")
        self._compressed = array("i")  # 0: a tombstone
        self._refcount = array("q")
        self._blobs: dict[int, bytes] = {}
        self._checksums: dict[int, int] = {}
        #: Delta id -> base id.
        self._delta_base: dict[int, int] = {}
        #: Base id -> delta records naming it (positive counts only).
        self._delta_refs: dict[int, int] = {}
        #: Logical map: page number -> page of physical ids by block.
        self._pages: dict[int, array] = {}
        #: Held ids that are not live: what the next
        #: :meth:`sweep_unreferenced` collects.
        self._zombies: set[int] = set()
        #: Rows that are not tombstones.
        self._held = 0
        # -- space ledger --
        self.logical_bytes = 0
        self.physical_bytes = 0

    # -- chunk table ----------------------------------------------------------

    def lookup(self, physical_id: Optional[int]) -> Optional[int]:
        """Compressed size of chunk ``physical_id``; None once swept (or
        for None).  Ids are never reused, so this is also the liveness
        probe of an index hit: None means its chunk is gone."""
        if physical_id is None \
                or not 0 <= physical_id < len(self._compressed):
            return None
        return self._compressed[physical_id] or None

    def record(self, physical_id: int) -> ChunkRecord:
        """View of the row of held chunk ``physical_id``."""
        compressed_size = self.lookup(physical_id)
        if compressed_size is None:
            raise MetadataError(f"chunk {physical_id} is not in this store")
        # tuple.__new__ skips the NamedTuple's Python-level __new__ (half
        # the cost): a read builds one view per chunk it resolves.
        return tuple.__new__(ChunkRecord, (
            physical_id, self._size[physical_id], compressed_size,
            self._refcount[physical_id], self._blobs.get(physical_id),
            self._checksums.get(physical_id),
            self._delta_base.get(physical_id),
            self._delta_refs.get(physical_id, 0)))

    def store_unique(self, size: int, compressed_size: int,
                     blob: Optional[bytes] = None,
                     checksum: Optional[int] = None) -> int:
        """Append a newly destaged unique chunk (born at refcount 0);
        returns its physical id."""
        if not (0 < size < 2**31 and 0 < compressed_size < 2**31):
            raise MetadataError("invalid chunk sizes")
        physical_id = len(self._compressed)
        self._size.append(size)
        self._compressed.append(compressed_size)
        self._refcount.append(0)
        if blob is not None:
            self._blobs[physical_id] = blob
        if checksum is not None:
            self._checksums[physical_id] = checksum
        self._zombies.add(physical_id)
        self._held += 1
        # The first map_logical accounts its bytes.
        return physical_id

    def attach_delta(self, physical_id: int, base_id: int) -> None:
        """Chunk ``physical_id``'s blob is a delta against ``base_id``'s
        plaintext: the base stays live while the delta is held."""
        if self.lookup(physical_id) is None or self.lookup(base_id) is None:
            raise MetadataError("delta and base must be held chunks")
        if physical_id in self._delta_base:
            raise MetadataError(f"chunk {physical_id} is already a delta")
        self._delta_base[physical_id] = base_id
        self._revive(base_id)
        self._delta_refs[base_id] = self._delta_refs.get(base_id, 0) + 1

    def replace_blob(self, physical_id: int, blob: bytes) -> None:
        """Overwrite a held chunk's stored blob in place (how silent
        bit-rot on the media is modelled)."""
        if self.lookup(physical_id) is None:
            raise MetadataError(f"chunk {physical_id} is not in this store")
        self._blobs[physical_id] = blob

    def _live(self, physical_id: int) -> bool:
        return (self._refcount[physical_id] > 0
                or physical_id in self._delta_refs)

    def _revive(self, physical_id: int) -> None:
        if not self._live(physical_id):
            self.physical_bytes += self._compressed[physical_id]
            self._zombies.discard(physical_id)

    def _retire(self, physical_id: int) -> None:
        if not self._live(physical_id):
            self.physical_bytes -= self._compressed[physical_id]
            self._zombies.add(physical_id)

    def _drop_ref(self, physical_id: int) -> None:
        """Decrement a refcount.  At zero the chunk becomes a zombie
        awaiting GC; its row (and blob) stay until
        :meth:`sweep_unreferenced`."""
        if self._refcount[physical_id] <= 0:
            raise MetadataError("refcount underflow")
        self._refcount[physical_id] -= 1
        self._retire(physical_id)

    def _drop_delta_ref(self, base_id: int) -> None:
        refs = self._delta_refs.pop(base_id, 0) - 1
        if refs < 0:
            raise MetadataError("delta-ref underflow")
        if refs:
            self._delta_refs[base_id] = refs
        else:
            self._retire(base_id)

    def sweep_unreferenced(self) -> int:
        """Tombstone zombie rows; returns bytes reclaimed.

        An index entry naming a swept id is stale: :meth:`lookup`
        answers None for it, which every index reads as a miss.
        """
        # Ascending physical id is the table's own order; a base that
        # a swept delta releases lands in the emptied set for next time.
        zombies = sorted(self._zombies)
        self._zombies.clear()
        compressed = self._compressed
        reclaimed = 0
        for physical_id in zombies:
            reclaimed += compressed[physical_id]
            compressed[physical_id] = 0
            self._blobs.pop(physical_id, None)
            self._checksums.pop(physical_id, None)
            base_id = self._delta_base.pop(physical_id, None)
            if base_id is not None:
                # The swept delta releases its base (which may become a
                # zombie itself, collected by the next sweep).
                self._drop_delta_ref(base_id)
        self._held -= len(zombies)
        return reclaimed

    # -- logical map -----------------------------------------------------------

    def map_logical(self, offset: int, physical_id: int) -> None:
        """Point logical ``offset`` at stored chunk ``physical_id``; the
        logical ledger grows by the size the table holds for it.

        The one mapping path: a unique's first reference, a duplicate
        an index found, a clone of old data the index can no longer
        find (post-restart), a compaction remap.  Referencing an
        unreferenced ("zombie") chunk resurrects it, so index hits
        after overwrites revive the stored chunk instead of dangling.
        Acquire-before-release: on an overwrite, the new reference is
        taken first so that rewriting an offset with the *same* content
        never transiently frees the chunk it still needs.
        """
        if offset & _IN_BLOCK:
            raise MetadataError(_unaligned(offset))
        compressed_size = self.lookup(physical_id)
        if compressed_size is None:
            raise MetadataError(f"chunk {physical_id} is not in this store")
        refcount = self._refcount
        count = refcount[physical_id]
        if count <= 0 and physical_id not in self._delta_refs:
            # _revive inlined: every chunk a run writes maps here.
            self.physical_bytes += compressed_size
            self._zombies.discard(physical_id)
        refcount[physical_id] = count + 1
        sizes = self._size
        block = offset >> _BLOCK_SHIFT
        page_no = block >> _PAGE_SHIFT
        page = self._pages.get(page_no)
        if page is None:
            page = self._pages[page_no] = _UNMAPPED_PAGE[:]
        slot = block & _SLOT
        old_id = page[slot]
        if old_id >= 0:
            self._drop_ref(old_id)
            self.logical_bytes -= sizes[old_id]
        page[slot] = physical_id
        self.logical_bytes += sizes[physical_id]

    def _mapped_slot(self, offset: int) -> tuple[array, int]:
        """(page, slot) of mapped logical ``offset``."""
        if offset & _IN_BLOCK:
            raise MetadataError(_unaligned(offset))
        block = offset >> _BLOCK_SHIFT
        page = self._pages.get(block >> _PAGE_SHIFT)
        slot = block & _SLOT
        if page is None or page[slot] < 0:
            raise MetadataError(f"logical offset {offset} is unmapped")
        return page, slot

    def mapped_id(self, offset: int) -> Optional[int]:
        """Id of the chunk backing logical ``offset``; None if unmapped."""
        if offset & _IN_BLOCK:
            raise MetadataError(_unaligned(offset))
        block = offset >> _BLOCK_SHIFT
        page = self._pages.get(block >> _PAGE_SHIFT)
        physical_id = -1 if page is None else page[block & _SLOT]
        return None if physical_id < 0 else physical_id

    def resolve(self, offset: int) -> ChunkRecord:
        """View of the chunk backing logical ``offset`` (survives
        restarts)."""
        page, slot = self._mapped_slot(offset)
        return self.record(page[slot])

    def resolve_sizes(self, offset: int) -> tuple[int, int]:
        """``(size, compressed size)`` of the chunk backing logical
        ``offset``: what a timed read charges, without a view."""
        page, slot = self._mapped_slot(offset)
        physical_id = page[slot]
        return self._size[physical_id], self._compressed[physical_id]

    def unmap_logical(self, offset: int) -> None:
        """Remove the mapping at ``offset`` (TRIM semantics)."""
        page, slot = self._mapped_slot(offset)
        physical_id = page[slot]
        page[slot] = -1
        self._drop_ref(physical_id)
        self.logical_bytes -= self._size[physical_id]

    def mapped_offsets(self) -> list[int]:
        """Every mapped logical offset, ascending."""
        offsets: list[int] = []
        for page_no in sorted(self._pages):
            base = page_no * _PAGE_BYTES
            offsets.extend(base + slot * DEFAULT_CHUNK_SIZE
                           for slot, physical_id
                           in enumerate(self._pages[page_no])
                           if physical_id >= 0)
        return offsets

    def _mapped_ids(self) -> list[int]:
        """The id in every mapped slot."""
        return [physical_id for page in self._pages.values()
                for physical_id in page if physical_id >= 0]

    # -- accounting ---------------------------------------------------------

    @property
    def unique_chunks(self) -> int:
        """Number of distinct *live* stored chunks."""
        return self._held - len(self._zombies)

    @property
    def zombie_chunks(self) -> int:
        """Unreferenced chunks awaiting garbage collection."""
        return len(self._zombies)

    def _live_ids(self) -> list[int]:
        # A tombstone's refcount is 0 and nothing deltas against it.
        return [i for i in range(len(self._refcount)) if self._live(i)]

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
        unique_raw = sum(self._size[i] for i in self._live_ids())
        if unique_raw <= 0:
            return 1.0 if self.logical_bytes == 0 else float("inf")
        return self.logical_bytes / unique_raw

    def verify_invariants(self) -> None:
        """Cross-check the ledger against the raw columns (test hook)."""
        compressed = self._compressed
        held = {i for i, size in enumerate(compressed) if size > 0}
        mapped = self._mapped_ids()
        kept = set(self._blobs).union(self._checksums, self._delta_base,
                                      mapped)
        if len(held) != self._held or not held.issuperset(kept):
            raise MetadataError(
                f"{self._held} held chunks, table {len(held)}; swept "
                f"chunks still in use {sorted(kept - held)[:8]}")
        live = self._live_ids()
        physical = sum(compressed[i] for i in live)
        if physical != self.physical_bytes:
            raise MetadataError(
                f"physical ledger {self.physical_bytes} != table {physical}")
        scanned = held.difference(live)
        if scanned != self._zombies:
            raise MetadataError(
                f"zombie set drift on chunks "
                f"{sorted(scanned ^ self._zombies)[:8]}")
        refs = sum(self._refcount)
        if refs != len(mapped):
            raise MetadataError(
                f"refcount total {refs} != logical mappings {len(mapped)}")
        drift = set(Counter(self._delta_base.values()).items()) ^ set(
            self._delta_refs.items())
        if drift:
            raise MetadataError(f"delta-ref drift on chunk {min(drift)[0]}")
        logical = sum(self._size[pid] for pid in mapped)
        if logical != self.logical_bytes:
            raise MetadataError(
                f"logical ledger {self.logical_bytes} != map {logical}")
