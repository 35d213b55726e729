"""Compression engine (paper §3.2).

Two real, round-trip-verified LZ codecs plus the paper's two parallel
compression paths:

* :mod:`~repro.compression.lzss` — a greedy LZSS codec (flag-bit token
  stream, 12-bit distances, 4-bit lengths) that defines the reference
  format; it encodes with the GPU path's segment search at one segment.
* :mod:`~repro.compression.quicklz` — a QuickLZ-class fast byte-oriented
  LZ codec (hash-table greedy matcher), the paper's CPU baseline.
* :mod:`~repro.compression.parallel_cpu` — chunk-per-thread CPU
  compression, timed on :class:`~repro.cpu.model.SimCpu`.
* :mod:`~repro.compression.gpu_lz` — the paper's contribution: multiple
  GPU threads compress *one* chunk by splitting it into segments with
  overlapping history windows; the CPU then post-processes the raw match
  output (:mod:`~repro.compression.postprocess`) into a valid LZSS stream.
"""

from repro.compression.lz_common import LzParams, DEFAULT_PARAMS
from repro.compression.delta import DeltaCodec, SimilarityIndex, sketch
from repro.compression.quicklz import QuickLzCodec


def __getattr__(name: str):
    # Lazy export: LzssCodec encodes with the segment search, whose
    # module imports lz_common from this package — a cycle if resolved
    # eagerly here (PEP 562).
    if name == "LzssCodec":
        from repro.compression.lzss import LzssCodec
        return LzssCodec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DeltaCodec",
    "SimilarityIndex",
    "sketch",
    "LzParams",
    "DEFAULT_PARAMS",
    "LzssCodec",
    "QuickLzCodec",
]
