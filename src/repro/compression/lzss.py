"""Serial LZSS codec: the library's reference compressor.

A textbook greedy LZSS and the serial executor of the one chain rule (last
``MAX_CHAIN`` same-key positions in the window, nearest wins ties).

This codec defines the canonical compressed format (see
:mod:`~repro.compression.lz_common`), and its decoder is the single
decoder used for *every* producer in the library, including the GPU
segment-parallel path after post-processing.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from collections import defaultdict
from typing import Optional

from repro.compression.lz_common import (
    DEFAULT_PARAMS,
    LzParams,
    common_prefix_length,
    decode_grouped,
    key3_array,
)
from repro.errors import CorruptStreamError

#: Bound on hash-chain length; keeps worst-case encode cost linearish.
MAX_CHAIN = 64


def occurrence_index(keys: list[int]) -> dict[int, list[int]]:
    """Sorted position lists per rolling key, for the whole buffer.

    The read-only half of the greedy fast path: built once per
    buffer, it answers "which earlier positions
    share this 3-byte key" for *any* query position via one bisect,
    replacing per-position hash-chain maintenance.  Callers must treat
    the index as read-only.
    """
    occ: "defaultdict[int, list[int]]" = defaultdict(list)
    for pos, key in enumerate(keys):
        occ[key].append(pos)
    # Freeze: lookups after construction must never create entries.
    occ.default_factory = None
    return occ


class IndexedMatchFinder:
    """Read-only match finder over a prebuilt occurrence index.

    Byte-identical to driving a hash-chain finder through the greedy
    insert discipline — every position inserted exactly once, in
    increasing order, before any query at a later position.  Under that
    discipline the bounded chain the incremental finder would hold at a
    query is exactly the last ``MAX_CHAIN`` occurrences of the key
    below the query position, which the index reads off with one bisect;
    candidates older than the window (or ``min_start``) terminate the
    scan in both implementations, so pre-seeded history that starts
    later than position 0 is covered too.  The GPU segment kernel
    (:mod:`repro.gpu.kernels.lz`) reproduces this ``best_match`` for a
    whole tile of chunks from one sort, without an index per chunk.
    """

    def __init__(self, data: bytes, params: LzParams = DEFAULT_PARAMS):
        self.data = data
        self.params = params
        self._keys = key3_array(data)
        self._occ = occurrence_index(self._keys)
        self._window = params.window
        self._min_match = params.min_match
        self._max_match = params.max_match

    def best_match(self, pos: int,
                   min_start: int = 0) -> Optional[tuple[int, int]]:
        """``(distance, length)`` of the best match at ``pos``, or None."""
        data = self.data
        n = len(data)
        if pos + 3 > n:
            return None
        limit = n - pos
        if limit > self._max_match:
            limit = self._max_match
        if limit < self._min_match:
            return None
        occ_k = self._occ.get(self._keys[pos])
        if occ_k is None:
            return None
        i = bisect_left(occ_k, pos)
        if i == 0:
            return None
        window_start = pos - self._window
        if min_start > window_start:
            window_start = min_start
        stop = i - MAX_CHAIN
        if stop < 0:
            stop = 0
        best_len = self._min_match - 1
        best_dist = 0
        probe = pos + best_len
        cpl = common_prefix_length
        for idx in range(i - 1, stop - 1, -1):
            candidate = occ_k[idx]
            if candidate < window_start:
                break
            if data[candidate + best_len] != data[probe]:
                continue
            length = cpl(data, candidate, pos, limit)
            if length > best_len:
                best_len = length
                best_dist = pos - candidate
                if length >= limit:
                    break
                probe = pos + best_len
        if best_dist:
            return (best_dist, best_len)
        return None


class LzssCodec:
    """Encode/decode bytes using the canonical LZSS container."""

    def __init__(self, params: LzParams = DEFAULT_PARAMS):
        self.params = params

    # -- encoding -----------------------------------------------------------

    def encode(self, data: bytes) -> bytes:
        """Compress ``data`` into the canonical container."""
        return self._encode_greedy(data)

    def _encode_greedy(self, data: bytes) -> bytes:
        """Greedy parse fused with container packing.

        Byte-identical to ``tokens_to_bytes`` over the greedy token
        list — same candidate chains (via
        :class:`IndexedMatchFinder`), same decisions, same 8-token flag
        groups — minus the incremental chain maintenance, the
        intermediate Token objects, and the second serialization pass.
        """
        n = len(data)
        out = bytearray(struct.pack(">I", n))
        if n == 0:
            return bytes(out)
        finder = IndexedMatchFinder(data, self.params)
        best = finder.best_match
        occ = finder._occ
        keys = finder._keys
        min_match = self.params.min_match
        last = n - 3
        append = out.append
        pos = 0
        # One iteration per 8-token flag group; a group is only opened
        # when at least one token follows, which reproduces the grouping
        # (and the no-trailing-flags-byte property) of tokens_to_bytes.
        while pos < n:
            flags = 0
            flag_pos = len(out)
            append(0)  # placeholder for this group's flags byte
            bit = 0
            while bit < 8 and pos < n:
                m = None
                if pos <= last:
                    # occ[keys[pos]] always exists and contains pos; an
                    # earlier occurrence is required for any candidate.
                    if occ[keys[pos]][0] < pos:
                        m = best(pos)
                if m is not None:
                    distance, length = m
                    flags |= 1 << bit
                    d = distance - 1  # 1-based -> 12 bits
                    append((d >> 4) & 0xFF)
                    append(((d & 0x0F) << 4) | ((length - min_match) & 0x0F))
                    pos += length
                else:
                    append(data[pos])
                    pos += 1
                bit += 1
            out[flag_pos] = flags
        return bytes(out)

    # -- decoding ----------------------------------------------------------

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

    def ratio(self, data: bytes) -> float:
        """Achieved compression ratio (original/compressed) on ``data``."""
        if not data:
            return 1.0
        return len(data) / len(self.encode(data))
