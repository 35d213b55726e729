"""The bin buffer (paper §3.3).

A small per-bin staging area in front of the bin trees: fresh fingerprints
land here first, so

* very recent duplicates hit a cheap buffer probe instead of a tree walk
  ("chunks are more likely to find duplicates in the bin buffer due to
  temporal locality"), and
* a bin's entries leave the buffer *together* when it fills, giving the
  SSD "appropriate sequential writes" and giving the GPU one batched bin
  update instead of per-entry dribble.

The buffer only stages; on flush the engine moves the entries into the
bin tree, destages them sequentially, and updates the GPU-resident bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.dedup.index_base import FingerprintView, decompose
from repro.errors import IndexError_


@dataclass(frozen=True, slots=True)
class FlushEvent:
    """One bin's worth of entries leaving the buffer."""

    bin_id: int
    #: (suffix, value) pairs in insertion order — with ``bin_id``, the
    #: views the bin tree and the GPU bin install as they are.
    staged: tuple[tuple[bytes, Any], ...]

    @property
    def count(self) -> int:
        return len(self.staged)


class BinBuffer:
    """Per-bin staging buffer with flush-on-full semantics."""

    __slots__ = ("prefix_bytes", "per_bin_capacity", "total_capacity",
                 "_bins", "_total")

    def __init__(self, prefix_bytes: int = 2, per_bin_capacity: int = 64,
                 total_capacity: int | None = None):
        if not 1 <= prefix_bytes <= 4:
            raise IndexError_(
                f"prefix_bytes must be in [1, 4], got {prefix_bytes}")
        if per_bin_capacity < 1:
            raise IndexError_(
                f"per_bin_capacity must be >= 1, got {per_bin_capacity}")
        if total_capacity is not None and total_capacity < per_bin_capacity:
            raise IndexError_(
                f"total_capacity {total_capacity} smaller than one bin")
        self.prefix_bytes = prefix_bytes
        self.per_bin_capacity = per_bin_capacity
        #: Overall staging budget ("If the bin buffer becomes full, the
        #: buffer will be flushed"): exceeding it flushes the fullest bin.
        self.total_capacity = total_capacity
        # Staged entries keyed by *suffix* — within one bin the suffix
        # identifies the fingerprint, and suffix-keyed dicts compare
        # fewer bytes per probe.
        self._bins: dict[int, dict[bytes, Any]] = {}
        self._total = 0

    # -- probe / stage --------------------------------------------------------

    def lookup(self, fingerprint: bytes) -> Optional[Any]:
        """Value for a *recent* fingerprint still staged here, or None."""
        return self.lookup_view(decompose(fingerprint, self.prefix_bytes))

    def lookup_view(self, view: FingerprintView) -> Optional[Any]:
        """Like :meth:`lookup` for an already-decomposed fingerprint."""
        staged = self._bins.get(view.bin_id)
        return None if staged is None else staged.get(view.suffix)

    def add_view(self, view: FingerprintView,
                 value: Any) -> Optional[FlushEvent]:
        """Stage a fresh, already-decomposed fingerprint; returns a
        FlushEvent when a flush is due — either this bin filled, or the
        whole buffer exceeded its budget (then the *fullest* bin
        flushes, maximizing the sequential write the flush produces)."""
        staged = self._bins.setdefault(view.bin_id, {})
        if view.suffix in staged:
            fingerprint = view.bin_id.to_bytes(self.prefix_bytes, "big") \
                + view.suffix
            raise IndexError_(
                f"fingerprint {fingerprint.hex()[:12]}... staged twice — "
                "the engine must probe before adding")
        staged[view.suffix] = value
        self._total += 1
        if len(staged) >= self.per_bin_capacity:
            return self._flush_bin(view.bin_id)
        if self.total_capacity is not None \
                and self._total > self.total_capacity:
            fullest = max(self._bins, key=lambda b: len(self._bins[b]))
            return self._flush_bin(fullest)
        return None

    def retain(self, lookup: Callable[[Any], Any]) -> None:
        """Keep only the staged entries whose value ``lookup`` finds."""
        for bin_id, staged in list(self._bins.items()):
            kept = {suffix: value for suffix, value in staged.items()
                    if lookup(value) is not None}
            self._total -= len(staged) - len(kept)
            if kept:
                self._bins[bin_id] = kept
            else:
                del self._bins[bin_id]

    def _flush_bin(self, bin_id: int) -> FlushEvent:
        staged = self._bins.pop(bin_id)
        self._total -= len(staged)
        return FlushEvent(bin_id=bin_id, staged=tuple(staged.items()))

    # -- teardown / introspection ------------------------------------------------

    def flush_all(self) -> list[FlushEvent]:
        """Drain every partially filled bin (end of run / shutdown)."""
        events = [self._flush_bin(bin_id) for bin_id in list(self._bins)]
        return events

    def __len__(self) -> int:
        return self._total
