"""Log-bucketed latency histogram.

Fixed memory regardless of sample count, ~2.3% bucket resolution —
enough for the P50/P99/P99.9 reporting the latency experiments need.
Buckets are powers of ``base`` starting at ``floor``; percentile queries
interpolate within a bucket.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError


class LatencyHistogram:
    """Accumulates nonnegative samples into logarithmic buckets."""

    def __init__(self, floor: float = 1e-6, base: float = 1.047,
                 n_buckets: int = 1024):
        if floor <= 0 or base <= 1.0 or n_buckets < 2:
            raise ConfigError("invalid histogram geometry")
        self.floor = floor
        self.base = base
        self._log_base = math.log(base)
        self._counts = [0] * n_buckets
        self.count = 0
        self.total = 0.0
        self.peak = 0.0
        #: Samples beyond the last bucket's range.  They are clamped
        #: into the last bucket for percentile math (whose only honest
        #: answer up there is the peak anyway), but the clamp is counted
        #: so a mis-sized histogram is visible in the summary instead of
        #: silently flattening the tail.
        self.overflow = 0

    def _bucket(self, value: float) -> int:
        if value <= self.floor:
            return 0
        index = int(math.log(value / self.floor) / self._log_base) + 1
        last = len(self._counts) - 1
        if index > last:
            self.overflow += 1
            return last
        return index

    def _bucket_upper(self, index: int) -> float:
        if index == 0:
            return self.floor
        return self.floor * self.base ** index

    def record(self, value: float) -> None:
        """Add one sample (seconds, by convention)."""
        if value < 0:
            raise ConfigError(f"negative sample {value}")
        self._counts[self._bucket(value)] += 1
        self.count += 1
        self.total += value
        self.peak = max(self.peak, value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Sample value at the given quantile (e.g. 0.99 for P99)."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"invalid percentile {fraction}")
        if self.count == 0:
            return 0.0
        target = fraction * self.count
        running = 0
        last = len(self._counts) - 1
        for index, bucket_count in enumerate(self._counts):
            running += bucket_count
            if running >= target:
                if index == last:
                    # Overflow bucket: its only honest upper bound is
                    # the observed peak.
                    return self.peak
                return min(self._bucket_upper(index), self.peak)
        return self.peak

    def summary(self) -> dict[str, float]:
        """Mean, the standard percentiles, and the overflow count."""
        return {
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
            "max": self.peak,
            "overflow": float(self.overflow),
        }
