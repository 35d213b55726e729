"""Block-content generation with a target compression ratio.

vdbench's ``compratio=`` dial produces data that compresses by roughly the
requested factor.  We reproduce it by mixing two ingredient textures in
one block:

* *pattern* bytes — a short repeating motif that LZ compresses heavily;
* *random* bytes — full-entropy noise that slightly expands under LZ.

Given the measured per-texture ratios of the library's LZSS codec, the
mixing fraction for a target ratio follows from the harmonic mix
(compressed sizes add, so *reciprocal* ratios mix linearly).  A secant
calibration loop then polishes the fraction against the real codec, since
the analytic ingredient ratios are only approximate.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

import numpy as np

from repro.compression.postprocess import compress_payloads
from repro.errors import WorkloadError

#: Approximate LZSS ratio on the pure repeating motif (12-bit window,
#: 18-byte max match ≈ 8.5x).
_PATTERN_RATIO = 8.5
#: Approximate LZSS "ratio" on pure noise (flag-bit expansion ≈ 0.889x).
_RANDOM_RATIO = 0.889
#: Motif repeated through the pattern texture.
_MOTIF = bytes(range(37, 69))
#: ``randrange(_PHASES)`` redraws the top ``_PHASES.bit_length()`` bits of
#: a Mersenne word until they name a phase.
_PHASES = len(_MOTIF)
_PHASE_SHIFT = 32 - _PHASES.bit_length()


def analytic_random_fraction(target_ratio: float) -> float:
    """Fraction of random bytes whose harmonic mix hits ``target_ratio``."""
    if target_ratio < 1.0:
        raise WorkloadError(f"compression ratio must be >= 1.0, "
                            f"got {target_ratio}")
    inv_target = 1.0 / target_ratio
    inv_random = 1.0 / _RANDOM_RATIO
    inv_pattern = 1.0 / _PATTERN_RATIO
    fraction = (inv_target - inv_pattern) / (inv_random - inv_pattern)
    return min(1.0, max(0.0, fraction))


def measured_ratios(blocks: Sequence[bytes]) -> list[float]:
    """Actual LZSS compression ratio of each of ``blocks`` (1.0 for an
    empty one), all searched in one call."""
    containers, _ = compress_payloads(blocks, 1)
    return [len(block) / len(blob) if block else 1.0
            for block, blob in zip(blocks, containers)]


class BlockContentGenerator:
    """Deterministic generator of blocks with a target compression ratio."""

    def __init__(self, target_ratio: float, *, seed: int,
                 granule: int = 64):
        if granule < 8:
            raise WorkloadError(f"granule too small: {granule}")
        self.target_ratio = target_ratio
        self.granule = granule
        self._seed = seed
        self.random_fraction = analytic_random_fraction(target_ratio)
        #: One full granule of the motif per phase.
        self._motif_granules = tuple(
            ((_MOTIF[phase:] + _MOTIF[:phase])
             * (granule // _PHASES + 1))[:granule]
            for phase in range(_PHASES))
        self.blocks = self.words_drawn = self.refills = 0

    def _pool_words(self, size: int) -> int:
        """Words one slab holds for ``size`` bytes: the expected use plus
        3 sigma of the granule mix, 4 sigma of the rejections and 64."""
        granules = -(-size // self.granule)
        return int(granules * (4 + 2 * self.random_fraction * self.granule)
                   + 3 * math.sqrt(granules) * self.granule
                   + 4 * math.sqrt(2 * size) + 64)

    def _draw(self, rng: random.Random, size: int, tail: bytes
              ) -> tuple[bytes, memoryview, memoryview, bytes]:
        """``tail`` plus the next slab of ``rng``'s 32-bit words: as
        little-endian bytes, as words, the positions whose top nine bits
        ``randrange(256)`` accepts, and the bytes those draws are."""
        count = self._pool_words(size)
        self.words_drawn += count
        raw = tail + rng.getrandbits(32 * count).to_bytes(4 * count, "little")
        stream = np.frombuffer(raw, dtype="<u4")
        top = stream >> 23
        accepted = np.flatnonzero(top < 256)
        return (raw, memoryview(stream.astype(np.uint32, copy=False)),
                memoryview(accepted), top[accepted].astype(np.uint8).tobytes())

    def make_block(self, size: int, salt: int = 0) -> bytes:
        """One block of ``size`` bytes; ``salt`` decorrelates blocks.

        The block is built granule by granule — random granules with
        probability ``random_fraction``, motif granules otherwise — from a
        per-block RNG, so the same (seed, salt) always regenerates the
        identical block (duplicates in payload mode rely on this).  The
        bytes are those of ``rng.random()`` per granule, ``randrange(256)``
        per random byte and ``randrange(32)`` per motif phase, read off
        pooled draws (DESIGN.md §9, "Pooled content generation").
        """
        if size <= 0:
            raise WorkloadError(f"invalid block size {size}")
        rng = random.Random(f"{self._seed}:{salt}")
        granule, fraction = self.granule, self.random_fraction
        motifs = self._motif_granules
        self.blocks += 1
        raw, words, accepted, noise = self._draw(rng, size, b"")
        out = bytearray(size)
        done = cursor = rank = 0
        while done < size:
            take = min(granule, size - done)
            try:
                # rng.random(): the top 27 and 26 bits of two words.
                at = cursor + 2
                if ((words[cursor] >> 5) * 67108864.0
                        + (words[cursor + 1] >> 6)) / 9007199254740992.0 \
                        < fraction:
                    while accepted[rank] < at:
                        rank += 1
                    at = accepted[rank + take - 1] + 1
                    out[done:done + take] = noise[rank:rank + take]
                    rank += take
                else:
                    while words[at] >> _PHASE_SHIFT >= _PHASES:
                        at += 1
                    out[done:done + take] = \
                        motifs[words[at] >> _PHASE_SHIFT][:take]
                    at += 1
            except IndexError:
                # The slab ended inside this granule, before any of it was
                # kept: the stream continues and the granule restarts.
                self.refills += 1
                raw, words, accepted, noise = self._draw(
                    rng, size - done, raw[4 * cursor:])
                cursor = rank = 0
                continue
            cursor = at
            done += take
        return bytes(out)

    def calibrate(self, size: int = 4096, samples: int = 4,
                  iterations: int = 6, tolerance: float = 0.05) -> float:
        """Refine ``random_fraction`` against the real codec.

        Returns the achieved mean ratio.  Secant-style updates on the
        reciprocal ratio, which is nearly linear in the fraction.
        """
        def measure(fraction: float) -> float:
            saved = self.random_fraction
            self.random_fraction = fraction
            ratios = measured_ratios([self.make_block(size, salt=1000 + s)
                                      for s in range(samples)])
            self.random_fraction = saved
            return sum(ratios) / len(ratios)

        inv_target = 1.0 / self.target_ratio
        f_prev, r_prev = 0.0, measure(0.0)
        f_here = self.random_fraction
        r_here = measure(f_here)
        for _ in range(iterations):
            if abs(r_here - self.target_ratio) / self.target_ratio \
                    <= tolerance:
                break
            inv_prev, inv_here = 1.0 / r_prev, 1.0 / r_here
            if inv_here == inv_prev or f_here == f_prev:
                break
            # Secant step on the reciprocal ratio (nearly linear in f).
            f_next = f_here + (inv_target - inv_here) \
                * (f_here - f_prev) / (inv_here - inv_prev)
            f_next = min(1.0, max(0.0, f_next))
            f_prev, r_prev = f_here, r_here
            f_here, r_here = f_next, measure(f_next)
        self.random_fraction = f_here
        return r_here
