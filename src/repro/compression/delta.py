"""Delta compression against similar chunks, with resemblance sketches.

Deduplication only removes *identical* chunks; primary-storage streams
are full of *near*-identical ones (a VM image rebuilt with one changed
timestamp, a record updated in place).  The standard answer in the
literature the paper sits in (Shilane et al., DEC) is delta compression:
detect a resemblant stored chunk via a cheap sketch, then encode only
the difference.  This module provides both halves:

* :func:`sketch` — super-feature resemblance sketches: min-hashes of the
  chunk's Rabin gram set, grouped into super-features; two chunks
  sharing any super-feature are overwhelmingly likely to be similar.
* :class:`DeltaCodec` — a copy/insert delta (xdelta/VCDIFF-class):
  the target is parsed greedily into COPY(source_offset, length) ops
  against the reference and INSERT literals, byte-serialized.

Delta container format (big-endian)::

    [u32 target_length][ops]
    op 0x01: COPY   [u32 source_offset][u16 length]
    op 0x00: INSERT [u16 length][literal bytes]
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.compression.lz_common import common_prefix_length_pair
from repro.errors import CompressionError, CorruptStreamError

#: Gram width for both sketching and delta matching.
_GRAM = 8
#: Multiplicative hash constant (Knuth).
_MULT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

_MIN_COPY = 12          # COPY costs 7 bytes; shorter matches stay literal
_MAX_COPY = 0xFFFF
_MAX_INSERT = 0xFFFF


def _gram_hash(data: bytes, pos: int) -> int:
    value = int.from_bytes(data[pos:pos + _GRAM], "little")
    return (value * _MULT) & _MASK64


def sketch(data: bytes, n_features: int = 4) -> tuple[int, ...]:
    """Super-feature resemblance sketch of ``data``.

    Each feature is the minimum of the gram hashes under a distinct
    permutation (min-hash); similar chunks share most grams, so their
    minima — and thus their features — collide with high probability.
    """
    if n_features < 1:
        raise CompressionError(f"need >= 1 feature, got {n_features}")
    if len(data) < _GRAM:
        return tuple(_gram_hash(data + b"\x00" * _GRAM, 0) + i
                     for i in range(n_features))
    minima = [None] * n_features
    step = 1 if len(data) < 2048 else 2  # sample grams on big chunks
    for pos in range(0, len(data) - _GRAM + 1, step):
        base = _gram_hash(data, pos)
        for feature in range(n_features):
            permuted = (base * (2 * feature + 3) + feature) & _MASK64
            if minima[feature] is None or permuted < minima[feature]:
                minima[feature] = permuted
    return tuple(minima)


class SimilarityIndex:
    """Feature -> chunk-id map for resemblance detection."""

    def __init__(self, n_features: int = 4):
        self.n_features = n_features
        self._by_feature: dict[tuple[int, int], int] = {}
        self.lookups = 0
        self.matches = 0

    def insert(self, chunk_id: int, chunk_sketch: tuple[int, ...]) -> None:
        """Register a stored chunk's sketch."""
        for slot, feature in enumerate(chunk_sketch):
            self._by_feature.setdefault((slot, feature), chunk_id)

    def find_similar(self,
                     chunk_sketch: tuple[int, ...]) -> Optional[int]:
        """Chunk id sharing any super-feature, or None."""
        self.lookups += 1
        for slot, feature in enumerate(chunk_sketch):
            chunk_id = self._by_feature.get((slot, feature))
            if chunk_id is not None:
                self.matches += 1
                return chunk_id
        return None

    def __len__(self) -> int:
        return len(self._by_feature)


class DeltaCodec:
    """Copy/insert delta encoding of a target against a reference."""

    def encode(self, reference: bytes, target: bytes) -> bytes:
        """Delta of ``target`` against ``reference``."""
        out = bytearray(struct.pack(">I", len(target)))
        index: dict[int, int] = {}
        for pos in range(0, max(0, len(reference) - _GRAM + 1)):
            index.setdefault(_gram_hash(reference, pos), pos)

        literals = bytearray()

        def flush_literals() -> None:
            start = 0
            while start < len(literals):
                piece = literals[start:start + _MAX_INSERT]
                out.append(0x00)
                out.extend(struct.pack(">H", len(piece)))
                out.extend(piece)
                start += len(piece)
            literals.clear()

        pos = 0
        n = len(target)
        while pos < n:
            match_pos = None
            if pos + _GRAM <= n:
                match_pos = index.get(_gram_hash(target, pos))
            if match_pos is not None:
                # Extend the gram match forward as far as it goes.
                limit = min(n - pos, len(reference) - match_pos, _MAX_COPY)
                length = common_prefix_length_pair(
                    reference, match_pos, target, pos, limit)
                # And backward into pending literals.  This stays a
                # per-byte walk: it compares *reversed* suffixes against
                # a mutable bytearray, and the pending-literal run it can
                # absorb is short — an integer XOR buys nothing here.
                back = 0
                while (back < len(literals) and back < match_pos  # repro-lint: disable=REP502
                       and length + back < _MAX_COPY
                       and reference[match_pos - back - 1]
                       == literals[-1 - back]):
                    back += 1
                if length >= _MIN_COPY:
                    if back:
                        del literals[-back:]
                    flush_literals()
                    out.append(0x01)
                    out.extend(struct.pack(">IH", match_pos - back,
                                           length + back))
                    pos += length
                    continue
            literals.append(target[pos])
            pos += 1
        flush_literals()
        return bytes(out)

    def decode(self, reference: bytes, delta: bytes) -> bytes:
        """Reconstruct the target from the reference and its delta."""
        if len(delta) < 4:
            raise CorruptStreamError("delta shorter than its header")
        (target_length,) = struct.unpack(">I", delta[:4])
        out = bytearray()
        pos = 4
        while len(out) < target_length:
            if pos >= len(delta):
                raise CorruptStreamError("delta truncated mid-stream")
            op = delta[pos]
            pos += 1
            if op == 0x01:
                if pos + 6 > len(delta):
                    raise CorruptStreamError("delta truncated in COPY")
                offset, length = struct.unpack(">IH", delta[pos:pos + 6])
                pos += 6
                if offset + length > len(reference):
                    raise CorruptStreamError(
                        f"COPY [{offset}, +{length}) outside the "
                        f"{len(reference)}-byte reference")
                out.extend(reference[offset:offset + length])
            elif op == 0x00:
                if pos + 2 > len(delta):
                    raise CorruptStreamError("delta truncated in INSERT")
                (length,) = struct.unpack(">H", delta[pos:pos + 2])
                pos += 2
                if pos + length > len(delta):
                    raise CorruptStreamError("delta INSERT overruns")
                out.extend(delta[pos:pos + length])
                pos += length
            else:
                raise CorruptStreamError(f"unknown delta op {op:#x}")
        if len(out) != target_length:
            raise CompressionError(
                f"delta expands to {len(out)}, header says {target_length}")
        return bytes(out)

    def ratio(self, reference: bytes, target: bytes) -> float:
        """target size / delta size."""
        if not target:
            return 1.0
        return len(target) / len(self.encode(reference, target))
