"""GPU compression path: batched segment-parallel LZ + CPU refinement.

The paper's division of labour (§3.2(2)-(3)): "the GPU performs
compression and the CPU is used for refinement."  This module adapts the
GPU LZ kernels to the pipeline's batching machinery:

* :meth:`GpuCompressor.make_kernel` builds one launch for a batch of
  chunks — :class:`~repro.gpu.kernels.lz.SegmentLzKernel` in payload mode
  (real match search), :class:`~repro.gpu.kernels.lz.DescriptorLzKernel`
  in descriptor mode;
* :meth:`GpuCompressor.split_results` fans the launch output back out to
  per-chunk raw results;
* :meth:`GpuCompressor.postprocess` is the CPU half: refine the raw
  output into the canonical container (payload mode really runs
  :func:`~repro.compression.postprocess.refine_to_container`) and report
  the refinement's CPU cycles.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.compression.lz_common import DEFAULT_PARAMS, LzParams
from repro.compression.parallel_cpu import CompressionResult
from repro.compression.postprocess import refine_to_container
from repro.cpu.costs import CpuCosts, DEFAULT_COSTS
from repro.errors import CompressionError
from repro.gpu.costs import DEFAULT_GPU_COSTS, GpuKernelCosts
from repro.gpu.kernel import Kernel
from repro.gpu.kernels.lz import (
    LZ_CENSUS,
    DescriptorLzKernel,
    SegmentLzKernel,
)
from repro.types import Chunk


class GpuCompressor:
    """Builds GPU compression launches and post-processes their output."""

    def __init__(self, segments_per_chunk: int = 8,
                 params: LzParams = DEFAULT_PARAMS,
                 cpu_costs: CpuCosts = DEFAULT_COSTS,
                 gpu_costs: GpuKernelCosts = DEFAULT_GPU_COSTS,
                 use_simt: bool = False):
        self.segments_per_chunk = segments_per_chunk
        self.params = params
        self.cpu_costs = cpu_costs
        self.gpu_costs = gpu_costs
        self.use_simt = use_simt
        self.chunks_compressed = 0
        self.bytes_in = 0
        self.bytes_out = 0
        #: Seam-repair observability, filled by refine_to_container.
        self.seam_stats: dict = {}
        #: The kernels' lockstep-walk census, summed over launches.
        self.lz_census = dict.fromkeys(LZ_CENSUS, 0)
        #: The payload launch made last, until its results come back.
        self._launched: Optional[SegmentLzKernel] = None

    # -- batching hooks (GpuBatcher interface) --------------------------------

    def make_kernel(self, chunks: Sequence[Chunk]) -> Kernel:
        """One launch covering ``chunks`` (all payload or all descriptor)."""
        payload_flags = {chunk.has_payload for chunk in chunks}
        if len(payload_flags) != 1:
            raise CompressionError(
                "a GPU batch must be all-payload or all-descriptor")
        if payload_flags.pop():
            self._launched = SegmentLzKernel(
                [chunk.payload for chunk in chunks],
                segments_per_chunk=self.segments_per_chunk,
                params=self.params, costs=self.gpu_costs,
                use_simt=self.use_simt)
            return self._launched
        return DescriptorLzKernel(
            [chunk.size for chunk in chunks],
            [chunk.effective_ratio() for chunk in chunks],
            segments_per_chunk=self.segments_per_chunk,
            costs=self.gpu_costs)

    def split_results(self, chunks: Sequence[Chunk],
                      raw: Any) -> Sequence[Any]:
        """Per-chunk raw results from the launch output (1:1 already)."""
        if len(raw) != len(chunks):
            raise CompressionError(
                f"kernel returned {len(raw)} results for "
                f"{len(chunks)} chunks")
        # The batcher's dispatcher runs make_kernel -> launch ->
        # split_results one batch at a time, so the kernel made last is
        # the one whose output this is.
        kernel, self._launched = self._launched, None
        if kernel is not None:
            for name in LZ_CENSUS:
                self.lz_census[name] += getattr(kernel, name)
        return raw

    # -- CPU refinement -----------------------------------------------------

    def postprocess(self, chunk: Chunk, raw: Any) -> CompressionResult:
        """CPU refinement of one chunk's raw GPU output."""
        if chunk.has_payload:
            blob = refine_to_container(chunk.payload, raw,
                                       params=self.params,
                                       stats=self.seam_stats)
            if len(blob) < chunk.size:
                size, stored_raw, out_blob = len(blob), False, blob
            else:
                size, stored_raw, out_blob = chunk.size, True, None
        else:
            size = int(raw)
            stored_raw = size >= chunk.size
            size = min(size, chunk.size)
            out_blob = None
        cycles = self.cpu_costs.postprocess_cycles(chunk.size)
        chunk.compressed_size = size
        self.chunks_compressed += 1
        self.bytes_in += chunk.size
        self.bytes_out += size
        return CompressionResult(compressed_size=size, cpu_cycles=cycles,
                                 blob=out_blob, stored_raw=stored_raw)

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
            "seams_extended": 0,
            "seam_bytes_absorbed": 0,
        }
        counters.update(self.seam_stats)
        counters.update((f"lz_{name}", count)
                        for name, count in self.lz_census.items())
        return counters
