"""GPU kernels: functional output plus timing cost reports.

* :mod:`~repro.gpu.kernels.indexing` — linear-bin fingerprint lookup, the
  GPU side of bin-based deduplication (paper §3.1(2)).
* :mod:`~repro.gpu.kernels.lz` — segment-parallel LZ match search with
  overlapping history windows, the GPU side of compression (paper §3.2(2)).
"""

from repro.gpu.kernels.indexing import BinLookupKernel, LookupBatch
from repro.gpu.kernels.indexing_tiled import TiledBinLookupKernel
from repro.gpu.kernels.lz import DescriptorLzKernel, SegmentLzKernel

__all__ = [
    "BinLookupKernel",
    "LookupBatch",
    "TiledBinLookupKernel",
    "DescriptorLzKernel",
    "SegmentLzKernel",
]
