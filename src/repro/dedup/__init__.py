"""Deduplication engine (paper §3.1).

The four classic stages — chunking, hashing, indexing, destaging — with
the paper's bin-based index design:

* :mod:`~repro.dedup.chunking` — the fixed-size chunker.
* :mod:`~repro.dedup.hashing` — SHA-1 fingerprinting.
* :mod:`~repro.dedup.bins` — the CPU index: the hash table partitioned
  into prefix-selected bins ("so that multiple computing threads can
  check the chunks of multiple hash tables at the same time without
  locking mechanism"), each bin a B-tree, with prefix truncation to save
  memory.  RAM-resident only, as the paper prescribes.
* :mod:`~repro.dedup.bin_buffer` — the staging buffer that absorbs recent
  fingerprints and flushes full bins sequentially.
* :mod:`~repro.dedup.gpu_index` — the GPU-resident linear-bin index with
  pluggable :mod:`~repro.dedup.replacement` policies (random by default,
  per the paper).
* :mod:`~repro.dedup.engine` — the timed 4-stage pipeline.
"""

from repro.dedup.bin_buffer import BinBuffer
from repro.dedup.bins import BinTable
from repro.dedup.btree import BTree
from repro.dedup.chunking import FixedChunker
from repro.dedup.gpu_index import GpuBinIndex
from repro.dedup.hashing import fingerprint_chunk
from repro.dedup.replacement import (
    FifoReplacement,
    LruReplacement,
    RandomReplacement,
    ReplacementPolicy,
)

__all__ = [
    "BinBuffer",
    "BinTable",
    "BTree",
    "FixedChunker",
    "GpuBinIndex",
    "fingerprint_chunk",
    "FifoReplacement",
    "LruReplacement",
    "RandomReplacement",
    "ReplacementPolicy",
]
