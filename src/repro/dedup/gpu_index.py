"""GPU-resident bin index (paper §3.1(2)).

The GPU performs bin-based indexing "just like on a CPU", but each bin is
a *linear table* so the lookup kernel's memory accesses stay coalesced
and branch-free.  Only the hash values live in device memory; all other
chunk metadata stays host-side, and the kernel result is the per-query
"(index number, hit/miss)" pair the paper describes.

Fingerprint storage: the bin id already encodes the ``prefix_bytes``
prefix (prefix truncation, as on the CPU), and the linear layout packs
the next 16 suffix bytes into two u64 lanes.  Dropping the final 2 bytes
of the SHA-1 suffix leaves 128 compared bits — collision odds are far
below device-error rates, the standard dedup-system trade.

Bins have fixed capacity; when a bin-buffer flush overflows one, the
pluggable :class:`~repro.dedup.replacement.ReplacementPolicy` picks the
victims (random by default, per the paper).  The *device* allocation is
the full ``bin_capacity`` from a bin's first entry; the host arrays that
stand in for it start at :data:`INITIAL_SLOTS` and double as installs
arrive, so host memory follows what a run indexed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.dedup.index_base import check_fingerprint, decompose
from repro.dedup.replacement import RandomReplacement, ReplacementPolicy
from repro.errors import IndexError_
from repro.gpu.costs import DEFAULT_GPU_COSTS, GpuKernelCosts
from repro.gpu.kernels.indexing import BinLookupKernel, LookupBatch
from repro.gpu.memory import DeviceMemory
from repro.types import FINGERPRINT_BYTES

#: Device bytes per entry: two u64 suffix lanes.
ENTRY_BYTES = 16
#: Host slots a bin's arrays start with (the bin buffer's default flush).
INITIAL_SLOTS = 64


def _suffix_lanes(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two big-endian u64 lanes of each row of suffix bytes.

    ``raw`` is ``(n, >= ENTRY_BYTES)`` uint8, one suffix per row; every
    legal ``prefix_bytes`` leaves at least the 16 compared bytes.
    """
    lanes = np.ascontiguousarray(
        raw[:, :ENTRY_BYTES]).view(">u8").astype(np.uint64)
    return lanes[:, 0], lanes[:, 1]


@dataclass(slots=True)
class _GpuBin:
    lo: np.ndarray
    hi: np.ndarray
    count: int


class _TableView(Mapping):
    """bin id -> ``(lo, hi, count)`` as a kernel launch sees device memory.

    ``count`` is each bin's fill when the view was taken; the arrays are
    the bin's *current* ones, read when the kernel runs — so an eviction
    between launch and execution is visible to a queued kernel whether
    or not the bin's host arrays grew in between.
    """

    __slots__ = ("_snapshot",)

    def __init__(self, bins: dict[int, _GpuBin]):
        self._snapshot = {bin_id: (entry, entry.count)
                          for bin_id, entry in bins.items()}

    def __getitem__(self, bin_id: int) -> tuple[np.ndarray, np.ndarray, int]:
        entry, count = self._snapshot[bin_id]
        return entry.lo, entry.hi, count

    def __iter__(self) -> Iterator[int]:
        return iter(self._snapshot)

    def __len__(self) -> int:
        return len(self._snapshot)


class GpuBinIndex:
    """Capacity-limited linear-bin fingerprint index in device memory."""

    __slots__ = ("prefix_bytes", "bin_capacity", "policy", "memory",
                 "costs", "_bins", "_size",
                 "_policy_tracks_inserts", "_policy_tracks_hits",
                 "evictions", "lookups", "hits")

    def __init__(self, prefix_bytes: int = 2, bin_capacity: int = 512,
                 policy: Optional[ReplacementPolicy] = None,
                 memory: Optional[DeviceMemory] = None,
                 costs: GpuKernelCosts = DEFAULT_GPU_COSTS):
        if not 1 <= prefix_bytes <= 4:
            raise IndexError_(
                f"prefix_bytes must be in [1, 4], got {prefix_bytes}")
        if bin_capacity < 1:
            raise IndexError_(
                f"bin_capacity must be >= 1, got {bin_capacity}")
        self.prefix_bytes = prefix_bytes
        self.bin_capacity = bin_capacity
        self.policy = policy if policy is not None \
            else RandomReplacement(seed=0)
        self.memory = memory
        self.costs = costs
        self._bins: dict[int, _GpuBin] = {}
        self._size = 0
        # Batched installs and result recording may skip the per-entry
        # policy hook loops, but only when the policy does not override
        # the base no-op hooks (LRU does; random/FIFO do not).
        policy_type = type(self.policy)
        self._policy_tracks_inserts = (
            policy_type.on_insert is not ReplacementPolicy.on_insert)
        self._policy_tracks_hits = (
            policy_type.on_hit is not ReplacementPolicy.on_hit)
        # -- statistics --
        self.evictions = 0
        self.lookups = 0
        self.hits = 0

    # -- key handling ----------------------------------------------------------

    def bin_of(self, fingerprint: bytes) -> int:
        """Bin number from the fingerprint prefix."""
        return decompose(fingerprint, self.prefix_bytes).bin_id

    # -- mutation -----------------------------------------------------------

    def _bin(self, bin_id: int) -> _GpuBin:
        entry = self._bins.get(bin_id)
        if entry is None:
            if self.memory is not None:
                self.memory.alloc(self.bin_capacity * ENTRY_BYTES,
                                  label=f"gpu-bin-{bin_id}")
            slots = min(self.bin_capacity, INITIAL_SLOTS)
            entry = _GpuBin(lo=np.zeros(slots, dtype=np.uint64),
                            hi=np.zeros(slots, dtype=np.uint64), count=0)
            self._bins[bin_id] = entry
        return entry

    def _reserve(self, entry: _GpuBin, count: int) -> None:
        """Grow ``entry``'s arrays (doubling, capped at ``bin_capacity``)
        to hold ``count`` entries."""
        slots = len(entry.lo)
        if count <= slots:
            return
        while slots < count:
            slots *= 2
        slots = min(slots, self.bin_capacity)
        used = entry.count
        lo = np.zeros(slots, dtype=np.uint64)
        hi = np.zeros(slots, dtype=np.uint64)
        lo[:used] = entry.lo[:used]
        hi[:used] = entry.hi[:used]
        entry.lo, entry.hi = lo, hi

    def insert(self, fingerprint: bytes) -> int:
        """Install a fingerprint; returns the slot used."""
        view = decompose(fingerprint, self.prefix_bytes)
        return self._install_run(view.bin_id, [view.suffix])

    def update_from_flush(
            self, entries: Iterable[tuple[bytes, object]]) -> int:
        """Install every (fingerprint, value) entry, whatever its bin.

        Consecutive entries of one bin install as one run, exactly as
        :meth:`install_views` would.
        """
        views = [decompose(fingerprint, self.prefix_bytes)
                 for fingerprint, _value in entries]
        n = len(views)
        start = 0
        while start < n:
            bin_id = views[start].bin_id
            end = start
            while end < n and views[end].bin_id == bin_id:
                end += 1
            self._install_run(bin_id,
                              [view.suffix for view in views[start:end]])
            start = end
        return n

    def install_views(self, bin_id: int, suffixes: Sequence[bytes]) -> None:
        """Apply a bin-buffer flush: install one bin's suffixes in order.

        The free-slot portion installs as two array assignments instead
        of per-entry :meth:`insert` calls.  Overflow entries still evict
        one at a time, in arrival order, so the
        :class:`ReplacementPolicy` sees the exact victim sequence (and
        RNG draws) it always has.
        """
        if suffixes:
            self._install_run(bin_id, suffixes)

    def _install_run(self, bin_id: int, suffixes: Sequence[bytes]) -> int:
        """Install a non-empty run; returns the last slot written."""
        entry = self._bin(bin_id)
        n = len(suffixes)
        # The one place suffix bytes become lanes: one big-endian array
        # pass over the whole run.
        lo, hi = _suffix_lanes(np.frombuffer(
            b"".join(suffixes), dtype=np.uint8).reshape(n, -1))
        fit = min(self.bin_capacity - entry.count, n)
        if fit > 0:
            base = entry.count
            self._reserve(entry, base + fit)
            entry.lo[base:base + fit] = lo[:fit]
            entry.hi[base:base + fit] = hi[:fit]
            entry.count += fit
            self._size += fit
            if self._policy_tracks_inserts:
                for slot in range(base, base + fit):
                    self.policy.on_insert(bin_id, slot)
            slot = base + fit - 1
        for i in range(fit, n):
            slot = self.policy.choose_victim(bin_id, self.bin_capacity)
            self.evictions += 1
            entry.lo[slot] = lo[i]
            entry.hi[slot] = hi[i]
            self.policy.on_insert(bin_id, slot)
        return slot

    # -- lookup --------------------------------------------------------------

    def table_view(self) -> _TableView:
        """Kernel-facing view of the device-resident bins."""
        return _TableView(self._bins)

    def make_batch(self, fingerprints: Sequence[bytes]) -> LookupBatch:
        """Build the query batch one kernel launch will resolve.

        The whole batch is decomposed in one numpy pass (join, reshape,
        one big-endian u64 view) rather than per-fingerprint slicing.
        Malformed input falls back to :func:`check_fingerprint` so the
        validation errors stay identical.
        """
        n = len(fingerprints)
        for fingerprint in fingerprints:
            if type(fingerprint) is not bytes \
                    or len(fingerprint) != FINGERPRINT_BYTES:
                check_fingerprint(fingerprint)
        raw = np.frombuffer(b"".join(fingerprints), dtype=np.uint8)
        raw = raw.reshape(n, FINGERPRINT_BYTES)
        p = self.prefix_bytes
        bin_ids = np.zeros(n, dtype=np.uint32)
        for col in range(p):
            bin_ids = (bin_ids << np.uint32(8)) | raw[:, col]
        lo, hi = _suffix_lanes(raw[:, p:])
        return LookupBatch.from_arrays(bin_ids, lo, hi)

    def make_kernel(self, fingerprints: Sequence[bytes],
                    use_simt: bool = False, tiled: bool = False):
        """Kernel object ready for :meth:`repro.gpu.device.GpuDevice.launch`.

        ``tiled`` selects the local-memory workgroup-per-bin variant
        (paper §3.1(2)'s local-memory design), which wins once several
        queries of a batch share a bin.
        """
        if tiled:
            from repro.gpu.kernels.indexing_tiled import \
                TiledBinLookupKernel
            return TiledBinLookupKernel(self.make_batch(fingerprints),
                                        self.table_view(),
                                        costs=self.costs,
                                        use_simt=use_simt)
        return BinLookupKernel(self.make_batch(fingerprints),
                               self.table_view(), costs=self.costs,
                               use_simt=use_simt)

    def lookup_host(self, fingerprints: Sequence[bytes]) -> list[bool]:
        """Functional lookup without a device (tests, calibration)."""
        if not fingerprints:
            return []
        slots = self.make_kernel(fingerprints).execute()
        return self.record_results(fingerprints, slots)

    def record_results(self, fingerprints: Sequence[bytes],
                       slots: np.ndarray) -> list[bool]:
        """Turn kernel slot output into hit booleans, updating stats."""
        slot_arr = np.asarray(slots)
        n = min(len(fingerprints), len(slot_arr))
        hit_mask = slot_arr[:n] >= 0
        self.lookups += n
        n_hits = int(np.count_nonzero(hit_mask))
        self.hits += n_hits
        if n_hits and self._policy_tracks_hits:
            # Hook order matters for stateful policies: ascending query
            # index, exactly as the historical per-entry loop fired.
            for qi in np.nonzero(hit_mask)[0].tolist():
                self.policy.on_hit(self.bin_of(fingerprints[qi]),
                                   int(slot_arr[qi]))
        return hit_mask.tolist()

    def clear(self) -> None:
        """Drop every bin (device memory freed, statistics kept)."""
        if self.memory is not None:
            for buffer in list(self.memory.live_buffers):
                if buffer.label.startswith("gpu-bin-"):
                    buffer.free()
        self._bins.clear()
        self._size = 0

    # -- accounting ---------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def device_bytes(self) -> int:
        """Device memory the allocated bins occupy."""
        return len(self._bins) * self.bin_capacity * ENTRY_BYTES

    def hit_rate(self) -> float:
        """Fraction of lookups that hit."""
        return self.hits / self.lookups if self.lookups else 0.0
