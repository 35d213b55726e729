"""Offset/access patterns for workload construction.

A pattern draws *slot numbers* in ``[0, n_slots)``; callers multiply by
the block size.  Deterministic under a seed, like everything else in the
workload package.
"""

from __future__ import annotations

import bisect
import random

from repro.errors import WorkloadError


class ZipfPattern:
    """Zipf-distributed draws: slot k with probability ~ 1/(k+1)^s.

    The skew that makes small GPU bins and the bin buffer worth having:
    a hot working set gets most of the accesses.
    """

    def __init__(self, n_slots: int, skew: float = 1.0, *, seed: int):
        if n_slots < 1:
            raise WorkloadError(f"need at least one slot, got {n_slots}")
        if skew <= 0:
            raise WorkloadError(f"skew must be positive, got {skew}")
        self.n_slots = n_slots
        self.skew = skew
        self._rng = random.Random(seed)
        cdf = []
        total = 0.0
        for k in range(n_slots):
            total += 1.0 / (k + 1) ** skew
            cdf.append(total)
        self._cdf = [c / total for c in cdf]

    def next_slot(self) -> int:
        """Draw the next slot number."""
        return bisect.bisect_left(self._cdf, self._rng.random())
