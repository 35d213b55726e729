"""Compression engine (paper §3.2).

Two real, round-trip-verified LZ codecs plus the paper's two parallel
compression paths:

* :mod:`~repro.compression.lzss` — a textbook LZSS codec (flag-bit token
  stream, 12-bit distances, 4-bit lengths) used as the reference format.
* :mod:`~repro.compression.quicklz` — a QuickLZ-class fast byte-oriented
  LZ codec (hash-table greedy matcher), the paper's CPU baseline.
* :mod:`~repro.compression.parallel_cpu` — chunk-per-thread CPU
  compression, timed on :class:`~repro.cpu.model.SimCpu`.
* :mod:`~repro.compression.gpu_lz` — the paper's contribution: multiple
  GPU threads compress *one* chunk by splitting it into segments with
  overlapping history windows; the CPU then post-processes the raw match
  output (:mod:`~repro.compression.postprocess`) into a valid LZSS stream.
"""

from repro.compression.lz_common import (
    Literal,
    Match,
    Token,
    LzParams,
    DEFAULT_PARAMS,
    tokens_to_bytes,
    bytes_to_tokens,
    decode_tokens,
)
from repro.compression.delta import DeltaCodec, SimilarityIndex, sketch
from repro.compression.lzss import LzssCodec
from repro.compression.quicklz import QuickLzCodec

__all__ = [
    "DeltaCodec",
    "SimilarityIndex",
    "sketch",
    "Literal",
    "Match",
    "Token",
    "LzParams",
    "DEFAULT_PARAMS",
    "tokens_to_bytes",
    "bytes_to_tokens",
    "decode_tokens",
    "LzssCodec",
    "QuickLzCodec",
]
