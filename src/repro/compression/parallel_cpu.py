"""CPU-parallel compression (paper §3.2(1)).

"The compute is parallelized by the CPU by assigning a computing thread
that runs the previously studied compression algorithm to each chunk."
Functionally that is just the serial codec per chunk; the parallelism is
the timed pipeline running many of these tasks across the simulated
hardware threads.  This module supplies the per-chunk functional work and
its cycle cost.

On the host the chunks are independent too: :meth:`CpuCompressor.
compress_window` hands a window's new payloads to the codec queue
(:mod:`repro.host`) without waiting, and :meth:`CpuCompressor.compress`
takes the chunk's container from it instead of encoding again.  The
codec is a pure function of the payload, so where an encode ran changes
no byte.

Expansion guard: if the codec output is not smaller than the input, the
chunk is stored raw (``compressed_size == size``), the standard
primary-storage behaviour for incompressible data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Union

from repro import host
from repro.compression.lzss import LzssCodec
from repro.compression.quicklz import QuickLzCodec
from repro.cpu.costs import DEFAULT_COSTS
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


def _encode_all(codec: Codec, payloads: list[bytes]) -> list[bytes]:
    """One container per payload: the CPU codec's queue task."""
    return [codec.encode(payload) for payload in payloads]


class CpuCompressor:
    """Per-chunk CPU compression: the paper's parallel QuickLZ baseline."""

    def __init__(self, codec: Optional[Codec] = None):
        self.codec = codec if codec is not None else QuickLzCodec()
        self.chunks_compressed = 0
        self.bytes_in = 0
        self.bytes_out = 0
        #: Containers :meth:`compress_window` queued and :meth:`compress`
        #: has not yet taken, by fingerprint: the share that encodes the
        #: payload and the payload's place in it.
        self.ahead: dict[bytes, tuple[host.Share, int]] = {}
        #: Containers by where they came from: the queue (encoded ahead
        #: on a helper, or in the caller on first take) or an encode
        #: inline in :meth:`compress`.  Not in :meth:`stats`, whose keys
        #: a volume's published metrics pin.
        self.encoded_ahead = 0
        self.encoded_inline = 0

    def compress(self, chunk: Chunk) -> CompressionResult:
        """Compress one chunk (functionally in payload mode).

        A container queued for the chunk's fingerprint is taken;
        without one the payload is encoded here.
        """
        if chunk.has_payload:
            queued = self.ahead.pop(chunk.fingerprint, None)
            if queued is None:
                blob = self.codec.encode(chunk.payload)
                self.encoded_inline += 1
            else:
                share, index = queued
                blob = host.take(share)[index]
                self.encoded_ahead += 1
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
        cycles = DEFAULT_COSTS.lz_encode_cycles(chunk.size, ratio)
        chunk.compressed_size = size
        self.chunks_compressed += 1
        self.bytes_in += chunk.size
        self.bytes_out += size
        return CompressionResult(compressed_size=size, cpu_cycles=cycles,
                                 blob=out_blob, stored_raw=stored_raw)

    def compress_window(self, chunks: list[Chunk]) -> None:
        """Queue the payloads of fingerprinted ``chunks`` to be encoded
        ahead, for :meth:`compress` to take; on one usable CPU nothing
        is queued.

        The caller passes one chunk per fingerprint it will compress;
        nothing is counted as compressed until :meth:`compress` runs.
        """
        share = host.submit(partial(_encode_all, self.codec),
                            [chunk.payload for chunk in chunks])
        if share is not None:
            self.ahead.update((chunk.fingerprint, (share, index))
                              for index, chunk in enumerate(chunks))

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
