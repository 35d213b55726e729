"""Per-shard reduction battery: the worker payload for both executors.

One :class:`ShardWorker` owns one node's slice of the cluster — a
:class:`~repro.dedup.engine.DedupEngine` over the bins its shard holds
and a :class:`~repro.compression.parallel_cpu.CpuCompressor` — and
processes the router's sub-windows in arrival order.  The same object
runs in-process under the serial executor and inside a child process
under the multiprocessing executor, so everything it touches (its
input :class:`~repro.cluster.router.RoutedWindow` columns, its final
report dict) is picklable plain data.

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

from typing import NamedTuple

from repro.compression.parallel_cpu import CpuCompressor
from repro.cluster.router import RoutedWindow
from repro.dedup.engine import DedupEngine, DestageBatch
from repro.errors import ClusterError

__all__ = ["ShardSpec", "ShardWorker"]


class ShardSpec(NamedTuple):
    """Picklable per-shard engine configuration."""

    prefix_bytes: int = 2
    bin_buffer_capacity: int = 64
    btree_min_degree: int = 16


class ShardWorker:
    """One node's dedup/compression battery."""

    __slots__ = ("shard_id", "spec", "_engine", "_compressor", "chunks",
                 "logical_bytes", "stored_bytes", "destage_batches",
                 "destage_chunks", "destage_bytes", "_finished")

    def __init__(self, shard_id: int, spec: ShardSpec = ShardSpec()):
        self.shard_id = shard_id
        self.spec = spec
        self._engine = DedupEngine(
            prefix_bytes=spec.prefix_bytes,
            btree_min_degree=spec.btree_min_degree,
            bin_buffer_capacity=spec.bin_buffer_capacity,
            bin_buffer_total=None)
        self._compressor = CpuCompressor()
        self.chunks = 0
        self.logical_bytes = 0
        self.stored_bytes = 0
        self.destage_batches = 0
        self.destage_chunks = 0
        self.destage_bytes = 0
        self._finished = False

    # -- processing ----------------------------------------------------------

    def process(self, window: RoutedWindow) -> None:
        """Run one routed sub-window through the shard's battery."""
        if self._finished:
            raise ClusterError(
                f"shard {self.shard_id} got a window after finish(): "
                "its bins are already drained")
        engine = self._engine
        compress = self._compressor.compress
        for chunk in window.chunks():
            outcome = engine.cpu_index(chunk)
            if outcome.duplicate:
                engine.commit_duplicate(chunk)
            else:
                result = compress(chunk)
                _cycles, batch, unique = engine.commit_unique(
                    chunk, result.blob)
                if unique:
                    self.stored_bytes += chunk.compressed_size
                if batch is not None:
                    self._note_destage(batch)
            self.chunks += 1
            self.logical_bytes += chunk.size

    def _note_destage(self, batch: DestageBatch) -> None:
        self.destage_batches += 1
        self.destage_chunks += batch.chunk_count
        self.destage_bytes += batch.payload_bytes

    # -- reporting -----------------------------------------------------------

    def finish(self) -> dict:
        """Drain partially filled bins and return the shard report."""
        if not self._finished:
            for batch in self._engine.drain():
                self._note_destage(batch)
            self._finished = True
        return self.report()

    def report(self) -> dict:
        """Plain-data shard report (ints only; picklable, mergeable)."""
        compressor = self._compressor
        return {
            "shard": self.shard_id,
            "chunks": self.chunks,
            "logical_bytes": self.logical_bytes,
            "stored_bytes": self.stored_bytes,
            "unique_chunks": self._engine.metadata.unique_chunks,
            "counters": dict(self._engine.counters),
            "compressed": {
                "chunks": compressor.chunks_compressed,
                "bytes_in": compressor.bytes_in,
                "bytes_out": compressor.bytes_out,
            },
            "destage": {
                "batches": self.destage_batches,
                "chunks": self.destage_chunks,
                "payload_bytes": self.destage_bytes,
            },
        }
