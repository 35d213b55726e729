"""Per-shard reduction battery: one routed stream in, one report out.

:func:`run_shards` gives each shard it is handed a fresh
:class:`~repro.dedup.engine.DedupEngine` over the bins that shard holds
and a :class:`~repro.compression.parallel_cpu.CpuCompressor`, runs the
shard's routed windows through them in arrival order, drains the
engine and returns the shard's report.  It is a pure function of its
arguments — picklable routed windows in, plain-int report dicts out —
so :func:`repro.host.spread` may compute any shard in the caller or in
a helper process and the report is the same.

Two deliberate configuration choices keep the merged N-shard report
equal to the 1-node oracle (DESIGN.md §14):

* ``bin_buffer_total=None`` — a *global* staging budget flushes the
  fullest bin, coupling one bin's flush timing to traffic in every
  other bin; under sharding that coupling would depend on the node
  count.  Per-bin capacity flushes are partition-invariant.
* no GPU index — the batched GPU probe's race window admits
  ``race_duplicates`` whose count depends on batch composition, which
  sharding changes.

Each chunk is indexed, compressed only on a unique verdict, and
committed, strictly in stream order (the order of
``ReducedVolume._write_chunk``), so every dedup verdict depends only on
prior same-bin commits — the property routing preserves under any node
count — and a duplicate never reaches the codec.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.router import RoutedWindow
from repro.compression.parallel_cpu import CpuCompressor
from repro.dedup.engine import DedupEngine

if TYPE_CHECKING:
    from repro.cluster.engine import ClusterConfig

__all__ = ["run_shards"]


def run_shards(config: ClusterConfig,
               shards: list[tuple[int, list[RoutedWindow]]]) -> list[dict]:
    """The report of each ``(shard id, routed windows)``, in order."""
    return [_run_shard(config, shard, windows) for shard, windows in shards]


def _run_shard(config: ClusterConfig, shard: int,
               windows: list[RoutedWindow]) -> dict:
    engine = DedupEngine(prefix_bytes=config.prefix_bytes,
                         bin_buffer_capacity=config.bin_buffer_capacity,
                         bin_buffer_total=None)
    compressor = CpuCompressor()
    compress = compressor.compress
    chunks = logical_bytes = stored_bytes = 0
    destaged = []
    for window in windows:
        for chunk in window.chunks():
            if engine.cpu_index(chunk).duplicate:
                engine.commit_duplicate(chunk)
            else:
                _cycles, batch, unique = engine.commit_unique(
                    chunk, compress(chunk).blob)
                if unique:
                    stored_bytes += chunk.compressed_size
                if batch is not None:
                    destaged.append(batch)
            chunks += 1
            logical_bytes += chunk.size
    destaged += engine.drain()
    return {
        "shard": shard,
        "chunks": chunks,
        "logical_bytes": logical_bytes,
        "stored_bytes": stored_bytes,
        "unique_chunks": engine.metadata.unique_chunks,
        "counters": dict(engine.counters),
        "compressed": {
            "chunks": compressor.chunks_compressed,
            "bytes_in": compressor.bytes_in,
            "bytes_out": compressor.bytes_out,
        },
        "destage": {
            "batches": len(destaged),
            "chunks": sum(batch.chunk_count for batch in destaged),
            "payload_bytes": sum(batch.payload_bytes for batch in destaged),
        },
    }
