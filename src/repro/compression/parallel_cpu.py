"""CPU-parallel compression (paper §3.2(1)).

"The compute is parallelized by the CPU by assigning a computing thread
that runs the previously studied compression algorithm to each chunk."
Functionally that is just the serial codec per chunk; the parallelism is
the timed pipeline running many of these tasks across the simulated
hardware threads.  This module supplies the per-chunk functional work and
its cycle cost.

Expansion guard: if the codec output is not smaller than the input, the
chunk is stored raw (``compressed_size == size``), the standard
primary-storage behaviour for incompressible data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.compression.lzss import LzssCodec
from repro.compression.quicklz import QuickLzCodec
from repro.cpu.costs import CpuCosts, DEFAULT_COSTS
from repro.types import Chunk

Codec = Union[LzssCodec, QuickLzCodec]


@dataclass
class CompressionResult:
    """Outcome of compressing one chunk."""

    compressed_size: int
    cpu_cycles: float
    #: Encoded container (payload mode) or None (descriptor mode / raw).
    blob: Optional[bytes]
    #: True when the chunk was stored uncompressed (expansion guard).
    stored_raw: bool = False


class CpuCompressor:
    """Per-chunk CPU compression: the paper's parallel QuickLZ baseline."""

    def __init__(self, codec: Optional[Codec] = None,
                 costs: CpuCosts = DEFAULT_COSTS):
        self.codec = codec if codec is not None else QuickLzCodec()
        self.costs = costs
        self.chunks_compressed = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def compress(self, chunk: Chunk) -> CompressionResult:
        """Compress one chunk (functionally in payload mode)."""
        if chunk.has_payload:
            blob = self.codec.encode(chunk.payload)
            if len(blob) < chunk.size:
                size, stored_raw, out_blob = len(blob), False, blob
            else:
                size, stored_raw, out_blob = chunk.size, True, None
            ratio = chunk.size / size
        else:
            ratio = chunk.effective_ratio()
            size = max(1, int(chunk.size / ratio))
            stored_raw = size >= chunk.size
            out_blob = None
        cycles = self.costs.lz_encode_cycles(chunk.size, ratio)
        chunk.compressed_size = size
        self.chunks_compressed += 1
        self.bytes_in += chunk.size
        self.bytes_out += size
        return CompressionResult(compressed_size=size, cpu_cycles=cycles,
                                 blob=out_blob, stored_raw=stored_raw)

    def compress_window(self, chunks: list[Chunk]) -> list[CompressionResult]:
        """:meth:`compress` on each chunk in order.

        Kept only because ``e2ebench/ledger.py`` names it as a wrap
        target; nothing in ``src/`` calls it.
        """
        return [self.compress(chunk) for chunk in chunks]

    def decompress(self, blob: bytes) -> bytes:
        """Round-trip helper for volume reads."""
        return self.codec.decode(blob)

    def achieved_ratio(self) -> float:
        """Aggregate original/compressed over everything compressed."""
        if self.bytes_out == 0:
            return 1.0
        return self.bytes_in / self.bytes_out

    def stats(self) -> dict[str, int]:
        """Flat counter mapping for the metrics registry."""
        return {
            "chunks_compressed": self.chunks_compressed,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }
