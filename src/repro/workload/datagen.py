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

import random

from repro.compression import LzssCodec
from repro.errors import WorkloadError

#: Approximate LZSS ratio on the pure repeating motif (12-bit window,
#: 18-byte max match ≈ 8.5x).
_PATTERN_RATIO = 8.5
#: Approximate LZSS "ratio" on pure noise (flag-bit expansion ≈ 0.889x).
_RANDOM_RATIO = 0.889
#: Motif repeated through the pattern texture.
_MOTIF = bytes(range(37, 69))


def _extend_random(out: bytearray, rng: random.Random, count: int) -> None:
    """Append ``count`` uniform bytes: ``rng.randrange(256)`` unrolled.

    ``Random._randbelow(256)`` draws ``(256).bit_length() == 9`` bits and
    rejects values >= 256; doing that directly skips two Python frames
    per byte and yields the same bytes *and* the same generator state
    (``tests/test_workload.py`` holds it to both on every CI Python).
    """
    getrandbits = rng.getrandbits
    append = out.append
    for _ in range(count):
        byte = getrandbits(9)
        while byte >= 256:
            byte = getrandbits(9)
        append(byte)


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


def measured_ratio(block: bytes) -> float:
    """Actual LZSS compression ratio of ``block``."""
    if not block:
        return 1.0
    return len(block) / len(LzssCodec().encode(block))


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

    def make_block(self, size: int, salt: int = 0) -> bytes:
        """One block of ``size`` bytes; ``salt`` decorrelates blocks.

        The block is built granule by granule — random granules with
        probability ``random_fraction``, motif granules otherwise — from a
        per-block RNG, so the same (seed, salt) always regenerates the
        identical block (duplicates in payload mode rely on this).
        """
        if size <= 0:
            raise WorkloadError(f"invalid block size {size}")
        rng = random.Random(f"{self._seed}:{salt}")
        out = bytearray()
        while len(out) < size:
            take = min(self.granule, size - len(out))
            if rng.random() < self.random_fraction:
                _extend_random(out, rng, take)
            else:
                phase = rng.randrange(len(_MOTIF))
                motif = _MOTIF[phase:] + _MOTIF[:phase]
                reps = (take // len(motif)) + 1
                out.extend((motif * reps)[:take])
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
            ratios = [measured_ratio(self.make_block(size, salt=1000 + s))
                      for s in range(samples)]
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
