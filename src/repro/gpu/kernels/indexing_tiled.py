"""Workgroup-tiled bin lookup: the paper's local-memory variant.

§3.1(2): "This continuous data layout is useful when utilizing the GPU's
local memory.  This is because copying data from GPU global memory to
local memory can be done naturally if the thread accesses the data
continuously."

Where :class:`~repro.gpu.kernels.indexing.BinLookupKernel` has every
thread stream its bin from *global* memory, this variant assigns one
workgroup per bin: the workgroup's threads cooperatively stage the bin
into local memory tile by tile (coalesced — each thread copies one
entry per round), barrier, then every thread compares its own queries
against the tile.  Global traffic drops from ``queries x bin_size`` to
``bin_size`` per bin, at the cost of a barrier per tile.

Functionally it *is* the simple kernel (``execute`` is inherited); the cost
model reflects the smaller global footprint and the cheaper (local)
compares, making this the kernel of choice once several queries share a
bin per batch.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import KernelError
from repro.gpu.costs import DEFAULT_GPU_COSTS
from repro.gpu.kernel import KernelCost
from repro.gpu.kernels.indexing import (
    BinLookupKernel,
    LookupBatch,
    RESULT_BYTES,
)

#: Local-memory compares cost far less than dependent global loads.
LOCAL_COMPARE_CYCLES = 6.0
#: Cycles to stage one entry global -> local (coalesced copy slot).
STAGE_CYCLES_PER_ENTRY = 10.0
#: Barrier cost per tile round, per thread.
BARRIER_CYCLES = 40.0
#: Threads per workgroup; one workgroup stages and scans one bin.
WORKGROUP_SIZE = 64


class TiledBinLookupKernel(BinLookupKernel):
    """One workgroup per bin, bins staged through local memory."""

    name = "bin_lookup_tiled"

    __slots__ = ("tile_entries", "_by_bin")

    def __init__(self, batch: LookupBatch,
                 table: Mapping[int, tuple[np.ndarray, np.ndarray, int]],
                 tile_entries: int = 256):
        if tile_entries < 1:
            raise KernelError(f"invalid tile size {tile_entries}")
        super().__init__(batch, table)
        self.tile_entries = tile_entries
        # Group query indices by bin: one workgroup handles one bin.
        self._by_bin: dict[int, list[int]] = {}
        for qi, bin_id in enumerate(batch.bin_ids.tolist()):
            self._by_bin.setdefault(bin_id, []).append(qi)

    def cost(self) -> KernelCost:
        # Batch and table view are fixed per launch: derive once, memoize.
        if self._cost_cache is not None:
            return self._cost_cache
        staged = sum(self._bin_view(b)[2] for b in self._by_bin)  # read once
        n = len(self.batch)
        compares = 0
        longest_bin = 0
        for bin_id, qis in self._by_bin.items():
            count = self._bin_view(bin_id)[2]
            compares += count * len(qis)
            if count > longest_bin:
                longest_bin = count
        tiles = -(-max(longest_bin, 1) // self.tile_entries)
        c = DEFAULT_GPU_COSTS
        lane_cycles = (staged * STAGE_CYCLES_PER_ENTRY
                       + compares * LOCAL_COMPARE_CYCLES
                       + n * c.index_fixed_lane_cycles
                       + tiles * BARRIER_CYCLES * n)
        # Critical path: stage one tile (amortized across the workgroup)
        # plus scan it locally, per tile.
        per_tile = (self.tile_entries * STAGE_CYCLES_PER_ENTRY
                    / WORKGROUP_SIZE
                    + self.tile_entries * LOCAL_COMPARE_CYCLES
                    + BARRIER_CYCLES)
        self._cost_cache = KernelCost(
            name=self.name,
            threads=len(self._by_bin) * WORKGROUP_SIZE,
            lane_cycles_total=lane_cycles,
            critical_path_cycles=tiles * per_tile,
            bytes_read=staged * c.index_entry_bytes,
            bytes_written=n * RESULT_BYTES,
        )
        return self._cost_cache
