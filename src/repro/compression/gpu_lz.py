"""GPU compression path: batched segment-parallel LZ + CPU refinement.

The paper's division of labour (§3.2(2)-(3)): "the GPU performs
compression and the CPU is used for refinement."  This module adapts the
GPU LZ kernels to the pipeline's batching machinery:

* :meth:`GpuCompressor.make_kernel` builds one launch for a batch of
  chunks — :class:`~repro.gpu.kernels.lz.SegmentLzKernel` in payload mode
  (real match search), :class:`~repro.gpu.kernels.lz.DescriptorLzKernel`
  in descriptor mode;
* :meth:`GpuCompressor.split_results` fans the launch output back out
  per chunk; in payload mode the CPU half really runs here, a tile at a
  time (:func:`~repro.compression.postprocess.refine_tile`), as part of
  the dispatcher's functional step, so it moves no simulated time;
* :meth:`GpuCompressor.postprocess` accounts for one chunk's refinement:
  stored size, the stored-raw decision and the CPU cycles the worker is
  charged for it.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.compression.lz_common import DEFAULT_PARAMS, LzParams
from repro.compression.parallel_cpu import CompressionResult
from repro.compression.postprocess import refine_tile
from repro.cpu.costs import CpuCosts, DEFAULT_COSTS
from repro.errors import CompressionError
from repro.gpu.costs import DEFAULT_GPU_COSTS, GpuKernelCosts
from repro.gpu.kernel import Kernel
from repro.gpu.kernels.lz import (
    LZ_CENSUS,
    DescriptorLzKernel,
    LzLaunch,
    SegmentLzKernel,
)
from repro.types import Chunk


class GpuCompressor:
    """Builds GPU compression launches and post-processes their output."""

    def __init__(self, segments_per_chunk: int = 8,
                 params: LzParams = DEFAULT_PARAMS,
                 cpu_costs: CpuCosts = DEFAULT_COSTS,
                 gpu_costs: GpuKernelCosts = DEFAULT_GPU_COSTS):
        self.segments_per_chunk = segments_per_chunk
        self.params = params
        self.cpu_costs = cpu_costs
        self.gpu_costs = gpu_costs
        self.chunks_compressed = 0
        self.bytes_in = 0
        self.bytes_out = 0
        #: The kernels' lockstep-walk census, summed over launches.
        self.lz_census = dict.fromkeys(LZ_CENSUS, 0)

    # -- batching hooks (GpuBatcher interface) --------------------------------

    def make_kernel(self, chunks: Sequence[Chunk]) -> Kernel:
        """One launch covering ``chunks`` (all payload or all descriptor)."""
        payload_flags = {chunk.has_payload for chunk in chunks}
        if len(payload_flags) != 1:
            raise CompressionError(
                "a GPU batch must be all-payload or all-descriptor")
        if payload_flags.pop():
            return SegmentLzKernel(
                [chunk.payload for chunk in chunks],
                segments_per_chunk=self.segments_per_chunk,
                params=self.params, costs=self.gpu_costs)
        return DescriptorLzKernel(
            [chunk.size for chunk in chunks],
            [chunk.effective_ratio() for chunk in chunks],
            segments_per_chunk=self.segments_per_chunk,
            costs=self.gpu_costs)

    def split_results(self, chunks: Sequence[Chunk],
                      raw: Any) -> Sequence[Any]:
        """Per-chunk results of a launch: refined containers in payload
        mode, the synthetic sizes as they are in descriptor mode."""
        payload = isinstance(raw, LzLaunch)
        if len(raw) != len(chunks) \
                or (chunks[0].payload is not None) != payload:
            raise CompressionError(
                f"kernel returned {len(raw)} "
                f"{'payload' if payload else 'descriptor'} results for "
                f"{len(chunks)} chunks")
        if not payload:
            return raw
        for name, count in raw.census.items():
            self.lz_census[name] += count
        return [blob for tile in raw.tiles
                for blob in refine_tile(tile, self.params)]

    # -- CPU refinement -----------------------------------------------------

    def postprocess(self, chunk: Chunk, raw: Any) -> CompressionResult:
        """Account for one chunk's refinement; ``raw`` is its entry of
        :meth:`split_results` (the container, or the synthetic size)."""
        payload = chunk.payload is not None
        size = len(raw) if payload else int(raw)
        stored_raw = size >= chunk.size
        size = min(size, chunk.size)
        chunk.compressed_size = size
        self.chunks_compressed += 1
        self.bytes_in += chunk.size
        self.bytes_out += size
        return CompressionResult(
            compressed_size=size, stored_raw=stored_raw,
            cpu_cycles=self.cpu_costs.postprocess_cycles(chunk.size),
            blob=raw if payload and not stored_raw else None)

    def achieved_ratio(self) -> float:
        """Aggregate original/compressed over everything compressed."""
        if self.bytes_out == 0:
            return 1.0
        return self.bytes_in / self.bytes_out

    def stats(self) -> dict[str, int]:
        """Flat counter mapping for the metrics registry."""
        counters = {
            "chunks_compressed": self.chunks_compressed,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }
        counters.update((f"lz_{name}", count)
                        for name, count in self.lz_census.items())
        return counters
