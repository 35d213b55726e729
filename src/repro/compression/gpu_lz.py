"""GPU compression path: batched segment-parallel LZ + CPU refinement.

The paper's division of labour (§3.2(2)-(3)): "the GPU performs
compression and the CPU is used for refinement."  This module adapts the
GPU LZ kernels to the pipeline's batching machinery:

* :meth:`GpuCompressor.compress_window` hands a window's new payloads to
  the codec queue (:mod:`repro.host`) without waiting: its task,
  :func:`~repro.compression.postprocess.compress_payloads`, is the
  segment-LZ search (:class:`~repro.gpu.kernels.lz.SegmentLzKernel`)
  and each tile's refinement, run on a helper or in the caller;
* :meth:`GpuCompressor.make_kernel` builds one launch for a batch of
  chunks, priced from their sizes
  (:class:`~repro.gpu.kernels.lz.DescriptorLzKernel`);
* :meth:`GpuCompressor.split_results` fans the launch output back out
  per chunk; in payload mode it takes each chunk's container from the
  queue by fingerprint and runs ``compress_payloads`` on the rest,
  in full tiles, as part of the dispatcher's functional step, so it
  moves no simulated time;
* :meth:`GpuCompressor.postprocess` accounts for one chunk's refinement:
  stored size, the stored-raw decision and the CPU cycles the worker is
  charged for it.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro import host
from repro.compression.parallel_cpu import CompressionResult
from repro.compression.postprocess import compress_payloads
from repro.cpu.costs import DEFAULT_COSTS
from repro.errors import CompressionError
from repro.gpu.kernel import Kernel
from repro.gpu.kernels.lz import LZ_CENSUS, DescriptorLzKernel
from repro.types import Chunk


class GpuCompressor:
    """Builds GPU compression launches and post-processes their output."""

    def __init__(self):
        self.chunks_compressed = 0
        self.bytes_in = 0
        self.bytes_out = 0
        #: The segment-LZ search's lockstep-walk census, summed over
        #: every search this compressor ran, on a helper or in the
        #: caller.  Its values depend on how payloads were tiled.
        self.lz_census = dict.fromkeys(LZ_CENSUS, 0)
        #: Containers :meth:`compress_window` queued and
        #: :meth:`split_results` has not yet taken, by fingerprint: the
        #: share that computes the payload's and its place in it.
        self.ahead: dict[bytes, tuple[host.Share, int]] = {}
        #: Queued shares whose census is not yet counted: it counts when
        #: the share's first container is taken.
        self._uncounted: set[host.Share] = set()

    def compress_window(self, chunks: list[Chunk]) -> None:
        """Queue the payloads of fingerprinted ``chunks`` to be searched
        and refined ahead, for :meth:`split_results` to take; on one
        usable CPU nothing is queued.

        The caller passes one chunk per fingerprint it will compress.
        """
        share = host.submit(compress_payloads,
                            [chunk.payload for chunk in chunks])
        if share is not None:
            self._uncounted.add(share)
            self.ahead.update((chunk.fingerprint, (share, index))
                              for index, chunk in enumerate(chunks))

    # -- batching hooks (GpuBatcher interface) --------------------------------

    def make_kernel(self, chunks: Sequence[Chunk]) -> Kernel:
        """One launch covering ``chunks`` (all payload or all descriptor),
        priced from their sizes."""
        if len({chunk.has_payload for chunk in chunks}) != 1:
            raise CompressionError(
                "a GPU batch must be all-payload or all-descriptor")
        return DescriptorLzKernel(
            [chunk.size for chunk in chunks],
            [chunk.effective_ratio() for chunk in chunks])

    def split_results(self, chunks: Sequence[Chunk],
                      raw: Sequence[int]) -> Sequence[Any]:
        """Per-chunk results of a launch: the synthetic sizes as they
        are in descriptor mode; in payload mode each chunk's container,
        taken from the queue or, for the chunks it holds none of,
        searched and refined here in full tiles."""
        if len(raw) != len(chunks):
            raise CompressionError(
                f"kernel returned {len(raw)} results for "
                f"{len(chunks)} chunks")
        if chunks[0].payload is None:
            return raw
        containers: list[Any] = []
        missed = []
        for chunk in chunks:
            queued = self.ahead.pop(chunk.fingerprint, None)
            if queued is None:
                missed.append(len(containers))
                containers.append(None)
                continue
            share, index = queued
            blobs, census = host.take(share)
            if share in self._uncounted:
                self._uncounted.remove(share)
                self._count(census)
            containers.append(blobs[index])
        if missed:
            blobs, census = compress_payloads(
                [chunks[at].payload for at in missed])
            self._count(census)
            for at, blob in zip(missed, blobs):
                containers[at] = blob
        return containers

    def _count(self, census: dict[str, int]) -> None:
        for name, count in census.items():
            self.lz_census[name] += count

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
            cpu_cycles=DEFAULT_COSTS.postprocess_cycles(chunk.size),
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
