"""Serial LZSS codec: the library's reference compressor.

A greedy LZSS under the one chain rule (last ``MAX_CHAIN`` same-key
positions in the window, nearest wins ties).  Its encoder is the segment
search at one segment per buffer plus the tile refinement
(:func:`~repro.compression.postprocess.compress_payloads`): the serial
parse is the point where the GPU path's segment sweep starts, and the
library keeps one executor of the chain rule.  Its oracle is
``ReferenceLzssCodec`` in ``tests/reference_codecs.py``.

This codec defines the canonical compressed format (see
:mod:`~repro.compression.lz_common`), and its decoder is the single
decoder used for *every* producer in the library, including the GPU
segment-parallel path after post-processing.
"""

from __future__ import annotations

from repro.compression.lz_common import (
    DEFAULT_PARAMS,
    LzParams,
    decode_grouped,
)
from repro.compression.postprocess import compress_payloads
from repro.errors import CorruptStreamError


class LzssCodec:
    """Encode/decode bytes using the canonical LZSS container."""

    def __init__(self, params: LzParams = DEFAULT_PARAMS):
        self.params = params

    def encode(self, data: bytes) -> bytes:
        """Compress ``data`` into the canonical container: the greedy
        parse as a one-segment search of ``data``, refined."""
        containers, _ = compress_payloads([data], 1, self.params)
        return containers[0]

    def decode(self, blob: bytes) -> bytes:
        """Decompress a canonical container back to plaintext."""
        min_match = self.params.min_match
        out, declared = decode_grouped(
            blob, 2,
            lambda word: ((word & 0x0F) + min_match, (word >> 4) + 1),
            "match reaches {} bytes back with only {} bytes produced")
        if len(out) != declared:
            raise CorruptStreamError(
                f"stream expands to {len(out)} bytes, header says {declared}")
        return out
