"""Linear-bin fingerprint lookup kernel (paper §3.1(2)).

The GPU keeps each bin as a *linear table* rather than a tree: one thread
per lookup scans its whole bin with coalesced, branch-free compares (a
tree walk would diverge and scatter loads).  The kernel returns, for each
query, the matching slot number or -1 — the paper's "index number and a
hit/miss information pair".  All other chunk metadata stays in host
memory, so the result pairs are the only traffic back across PCIe.

The scan is deliberately *not* cut short on a hit: real SIMT code would
pay for the full bin anyway because the wavefront's other lanes keep
scanning.  The cost model charges the full scan for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro.errors import KernelError
from repro.gpu.costs import DEFAULT_GPU_COSTS
from repro.gpu.kernel import Kernel, KernelCost

#: Bytes shipped to the device per query: bin id (u4) + suffix (u8 x 2).
QUERY_BYTES = 20
#: Bytes returned per query: slot number + hit flag packed in 8 bytes.
RESULT_BYTES = 8


_NO_SUFFIXES = np.empty(0, dtype=np.uint64)
_NO_SUFFIXES.flags.writeable = False
#: ``(lo, hi, count)`` of a bin the table lacks, shared by every launch.
_EMPTY_BIN = (_NO_SUFFIXES, _NO_SUFFIXES, 0)


@dataclass(slots=True)
class LookupBatch:
    """A batch of fingerprint lookups, one per GPU thread."""

    bin_ids: np.ndarray   # u4, shape (n,)
    lo: np.ndarray        # u8, shape (n,)
    hi: np.ndarray        # u8, shape (n,)

    def __post_init__(self) -> None:
        n = len(self.bin_ids)
        if len(self.lo) != n or len(self.hi) != n:
            raise KernelError("query component lengths disagree")
        if n == 0:
            raise KernelError("empty lookup batch")

    def __len__(self) -> int:
        return len(self.bin_ids)

    @classmethod
    def from_arrays(cls, bin_ids: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> "LookupBatch":
        """Build a batch from pre-decomposed query component arrays."""
        return cls(bin_ids=np.ascontiguousarray(bin_ids, dtype=np.uint32),
                   lo=np.ascontiguousarray(lo, dtype=np.uint64),
                   hi=np.ascontiguousarray(hi, dtype=np.uint64))


class BinLookupKernel(Kernel):
    """One launch of the linear-bin lookup over a query batch.

    ``table`` maps bin id to ``(lo_array, hi_array, count)`` where the
    arrays are the bin's device-resident linear storage and ``count`` is
    the number of valid leading slots.
    """

    name = "bin_lookup"

    __slots__ = ("batch", "table", "_entries_scanned",
                 "_longest_bin", "_cost_cache")

    def __init__(self, batch: LookupBatch,
                 table: Mapping[int, tuple[np.ndarray, np.ndarray, int]]):
        self.batch = batch
        self.table = table
        self._entries_scanned: Optional[int] = None
        self._longest_bin: Optional[int] = None
        self._cost_cache: Optional[KernelCost] = None

    # -- functional execution ------------------------------------------------

    def _bin_view(self, bin_id: int) -> tuple[np.ndarray, np.ndarray, int]:
        entry = self.table.get(int(bin_id))
        return _EMPTY_BIN if entry is None else entry

    def execute(self) -> np.ndarray:
        """Return an i8 array of slot numbers (-1 for miss) per query."""
        n = len(self.batch)
        slots = np.full(n, -1, dtype=np.int64)
        scanned = 0
        bin_ids = self.batch.bin_ids
        qlo = self.batch.lo
        qhi = self.batch.hi
        # Group queries by bin so each bin's compare runs once per batch;
        # the group boundaries come from one C-level neighbour compare.
        order = np.argsort(bin_ids, kind="stable")
        sorted_bins = bin_ids[order]
        starts = np.nonzero(
            np.r_[True, sorted_bins[1:] != sorted_bins[:-1]])[0]
        ends = np.append(starts[1:], n)
        for s, e in zip(starts.tolist(), ends.tolist()):
            idx = order[s:e]
            lo_arr, hi_arr, count = self._bin_view(int(sorted_bins[s]))
            scanned += count * (e - s)
            if count:
                valid_lo = lo_arr[:count]
                valid_hi = hi_arr[:count]
                # One 2-D broadcast compare for the whole group; argmax
                # picks the first matching slot, as the scan order did.
                eq = (valid_lo[None, :] == qlo[idx, None]) \
                    & (valid_hi[None, :] == qhi[idx, None])
                hit_any = eq.any(axis=1)
                if hit_any.any():
                    slots[idx[hit_any]] = eq[hit_any].argmax(axis=1)
        self._entries_scanned = scanned
        return slots

    # -- timing -------------------------------------------------------------

    def _scanned(self) -> int:
        if self._entries_scanned is None:
            # Cost may be requested before execution (the device prices the
            # launch up front); derive the scan volume from the table once,
            # walking each distinct bin a single time.
            uniq, counts = np.unique(self.batch.bin_ids, return_counts=True)
            self._entries_scanned = sum(
                self._bin_view(int(bid))[2] * int(reps)
                for bid, reps in zip(uniq, counts))
        return self._entries_scanned

    def cost(self) -> KernelCost:
        # The batch and table view are fixed per launch, so the price is
        # derived once and memoized: cost-before-execute == cost-after.
        if self._cost_cache is not None:
            return self._cost_cache
        scanned = self._scanned()
        n = len(self.batch)
        if self._longest_bin is None:
            self._longest_bin = max(
                (self._bin_view(int(bid))[2]
                 for bid in np.unique(self.batch.bin_ids)),
                default=0)
        c = DEFAULT_GPU_COSTS
        self._cost_cache = KernelCost(
            name=self.name,
            threads=n,
            lane_cycles_total=(scanned * c.index_entry_lane_cycles
                               + n * c.index_fixed_lane_cycles),
            critical_path_cycles=(self._longest_bin
                                  * c.index_entry_latency_cycles),
            bytes_read=scanned * c.index_entry_bytes,
            bytes_written=n * RESULT_BYTES,
        )
        return self._cost_cache

    def bytes_in(self) -> int:
        return len(self.batch) * QUERY_BYTES

    def bytes_out(self) -> int:
        return len(self.batch) * RESULT_BYTES
