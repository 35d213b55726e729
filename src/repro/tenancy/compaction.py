"""Out-of-line compaction of inline-skipped chunks.

Chunks the admission layer stored raw (inline-skip verdicts, and cache
misses whose duplicate was hidden by the bounded cache) land here as
:class:`CompactionEntry` records: the chunk's *real* fingerprint plus
the physical id of the shadow copy it was stored as.  Background
epochs re-fingerprint each deferred chunk (charged as SHA-1 plus an
index probe plus a metadata update through ``SimCpu``), remap its
logical offset to the stored copy the controller's index names, and
let the metadata store's zombie sweep reclaim the shadow blob — Li et
al.'s hybrid inline/out-of-line design, which is what lets prioritized
admission skip cold streams inline without giving up their dedup
ratio.  The epoch itself is ``TenancyController.apply_compaction``;
this queue holds the deferred entries and the epoch counters.

Identity argument: compaction only *remaps and sweeps*.  The logical
map covers the same offsets with the same sizes before and after an
epoch; only which physical record backs them changes, so
``MetadataStore.dedup_ratio()`` — logical bytes over live unique raw
bytes — monotonically recovers toward the oracle as epochs run, and
``verify_invariants()`` holds at every epoch boundary.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from repro.cpu.costs import DEFAULT_COSTS
from repro.errors import ConfigError

__all__ = ["CompactionEntry", "CompactionQueue"]


class CompactionEntry(NamedTuple):
    """One deferred chunk awaiting out-of-line dedup.

    Immutable, and about half the construction cost of a frozen slots
    dataclass; one is built for most of a cold tenant's chunks.
    """

    tenant: int
    offset: int
    size: int
    #: Real content fingerprint (known to the workload/hashing stage).
    fingerprint: bytes
    #: Physical id of the shadow copy the raw chunk was stored as.
    shadow_id: int


class CompactionQueue:
    """Deferred-chunk queue plus the epoch counters."""

    __slots__ = ("batch", "epochs", "recovered", "reclaimed_bytes",
                 "deferred", "_pending")

    def __init__(self, batch: int):
        if batch < 1:
            raise ConfigError(f"invalid compaction batch {batch}")
        self.batch = batch
        self.epochs = 0
        self.recovered = 0
        self.reclaimed_bytes = 0
        self.deferred = 0
        self._pending: list[CompactionEntry] = []

    def __len__(self) -> int:
        return len(self._pending)

    def defer(self, entry: CompactionEntry) -> None:
        """Queue one raw-stored chunk for a future epoch."""
        self.deferred += 1
        self._pending.append(entry)

    def take_batch(self) -> Optional[list[CompactionEntry]]:
        """A full epoch batch, or None while the queue is short."""
        if len(self._pending) < self.batch:
            return None
        batch = self._pending[:self.batch]
        del self._pending[:self.batch]
        return batch

    def drain(self) -> Iterator[list[CompactionEntry]]:
        """End-of-run epochs: every remaining entry, batch by batch."""
        while self._pending:
            batch = self._pending[:self.batch]
            del self._pending[:self.batch]
            yield batch

    def cycles_for(self, entries: list[CompactionEntry]) -> float:
        """CPU cycles one epoch charges: re-hash + probe + remap each."""
        costs = DEFAULT_COSTS
        cycles = 0.0
        for entry in entries:
            cycles += costs.sha1_cycles(entry.size)
            cycles += costs.bin_buffer_probe
            cycles += costs.metadata_update
        return cycles

    def close_epoch(self, recovered: int, reclaimed_bytes: int) -> None:
        """Count one finished epoch, its recovered duplicates and the
        shadow bytes its sweep reclaimed."""
        self.recovered += recovered
        self.reclaimed_bytes += reclaimed_bytes
        self.epochs += 1

    def counters(self) -> dict[str, int]:
        """Lifetime compaction counters (folded into the obs registry)."""
        return {
            "deferred": self.deferred,
            "recovered": self.recovered,
            "epochs": self.epochs,
            "reclaimed_bytes": self.reclaimed_bytes,
            "pending": len(self._pending),
        }
