"""Per-stream duplicate-locality estimation (HPDedup-style).

A stream's *temporal duplicate locality* — how often the next chunk
repeats a fingerprint seen in the recent past — decides whether its
entries deserve inline fingerprint-cache residency.  HPDedup (Wu et
al., PAPERS.md) estimates it per stream over a sliding window and
prioritizes cache shares accordingly; streams whose estimate stays
near zero are better served by skipping inline dedup entirely and
letting out-of-line compaction recover the few duplicates later.

:class:`LocalityEstimator` is a sketch: a fingerprint ring plus a
membership count map makes each observation O(1).  Its oracle — a
linear scan of the last ``window`` fingerprints per observation — is
``NaiveLocalityEstimator`` in ``tests/reference_paths.py``; both fold
hits into the same EWMA with the same float expressions in the same
order, so ``tests/test_tenancy_equivalence.py`` holds the estimates
byte-equal, not just close.
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["LocalityEstimator"]


class LocalityEstimator:
    """O(1) sliding-sketch locality estimate over a fingerprint window.

    ``observe(fp)`` reports whether ``fp`` occurred in the last
    ``window`` observations (window-inclusive: the oldest entry is
    still live when the test runs) and folds the hit into an EWMA whose
    half-life tracks the window size.
    """

    __slots__ = ("window", "observed", "hits", "_alpha", "_estimate",
                 "_ring", "_pos", "_counts")

    def __init__(self, window: int):
        if window < 1:
            raise ConfigError(f"invalid locality window {window}")
        self.window = window
        self.observed = 0
        self.hits = 0
        self._alpha = 2.0 / (window + 1.0)
        self._estimate = 0.0
        self._ring: list = [None] * window
        self._pos = 0
        self._counts: dict[bytes, int] = {}

    @property
    def estimate(self) -> float:
        """Current EWMA duplicate-locality estimate in [0, 1]."""
        return self._estimate

    def observe(self, fingerprint: bytes) -> bool:
        """Record one fingerprint; True when it hit the window."""
        counts = self._counts
        hit = fingerprint in counts
        ring = self._ring
        pos = self._pos
        old = ring[pos]
        if old is not None:
            remaining = counts[old] - 1
            if remaining:
                counts[old] = remaining
            else:
                del counts[old]
        ring[pos] = fingerprint
        counts[fingerprint] = counts.get(fingerprint, 0) + 1
        self._pos = pos + 1 if pos + 1 < self.window else 0
        self.observed += 1
        if hit:
            self.hits += 1
            self._estimate += self._alpha * (1.0 - self._estimate)
        else:
            self._estimate -= self._alpha * self._estimate
        return hit
