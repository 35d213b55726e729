"""Tests for the log-bucketed latency histogram."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim.histogram import LatencyHistogram


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.mean == 0.0
        assert hist.percentile(0.99) == 0.0
        assert hist.count == 0

    def test_mean_is_exact(self):
        hist = LatencyHistogram()
        for value in [1.0, 2.0, 3.0]:
            hist.record(value)
        assert hist.mean == pytest.approx(2.0)
        assert hist.peak == 3.0

    def test_percentiles_ordered(self):
        hist = LatencyHistogram()
        rng = random.Random(1)
        for _ in range(5000):
            hist.record(rng.expovariate(100.0))
        p50 = hist.percentile(0.50)
        p99 = hist.percentile(0.99)
        p999 = hist.percentile(0.999)
        assert p50 <= p99 <= p999 <= hist.peak

    def test_percentile_accuracy_within_bucket_resolution(self):
        hist = LatencyHistogram()
        values = [i / 1000.0 for i in range(1, 1001)]  # 1ms..1s uniform
        for value in values:
            hist.record(value)
        # P50 should land near 0.5 s within the ~4.7% bucket width.
        assert hist.percentile(0.50) == pytest.approx(0.5, rel=0.08)
        assert hist.percentile(0.99) == pytest.approx(0.99, rel=0.08)

    def test_subfloor_samples_land_in_first_bucket(self):
        hist = LatencyHistogram(floor=1e-6)
        hist.record(1e-9)
        assert hist.percentile(1.0) <= 1e-6

    def test_negative_sample_rejected(self):
        with pytest.raises(ConfigError):
            LatencyHistogram().record(-1.0)

    def test_invalid_percentile_rejected(self):
        with pytest.raises(ConfigError):
            LatencyHistogram().percentile(1.5)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            LatencyHistogram(floor=0.0)
        with pytest.raises(ConfigError):
            LatencyHistogram(base=1.0)

    def test_summary_keys(self):
        hist = LatencyHistogram()
        hist.record(0.01)
        summary = hist.summary()
        assert set(summary) == {"mean", "p50", "p99", "p999", "max",
                                "overflow"}

    def test_huge_samples_clamp_to_last_bucket(self):
        hist = LatencyHistogram(n_buckets=16)
        hist.record(1e9)
        assert hist.percentile(1.0) == 1e9  # clamped to observed peak

    def test_overflow_counted_and_surfaced(self):
        hist = LatencyHistogram(n_buckets=16)
        hist.record(1e-6)   # in range
        hist.record(1e9)    # far past the 16-bucket range
        hist.record(2e9)
        assert hist.overflow == 2
        assert hist.summary()["overflow"] == 2.0
        # In-range histograms report zero, so goldens stay clean.
        ok = LatencyHistogram()
        ok.record(0.01)
        assert ok.summary()["overflow"] == 0.0

    def test_zero_samples_summary(self):
        summary = LatencyHistogram().summary()
        assert summary == {"mean": 0.0, "p50": 0.0, "p99": 0.0,
                           "p999": 0.0, "max": 0.0, "overflow": 0.0}

    def test_single_sample_percentiles(self):
        hist = LatencyHistogram()
        hist.record(0.5)
        # Every non-degenerate percentile of a one-sample histogram is
        # that sample (p0 targets zero mass and reports the floor).
        for q in (0.01, 0.5, 0.99, 1.0):
            assert hist.percentile(q) == pytest.approx(0.5, rel=0.05)

    def test_percentile_interpolation_at_bucket_boundary(self):
        hist = LatencyHistogram(floor=1e-6, base=2.0, n_buckets=32)
        # Two samples in distinct buckets: the p50 cut lands exactly on
        # the first sample's bucket; its reported value must not exceed
        # the bucket's upper edge clamped to the observed peak.
        hist.record(3e-6)   # bucket (2e-6, 4e-6]
        hist.record(100e-6)
        p50 = hist.percentile(0.50)
        assert p50 <= 4e-6
        assert hist.percentile(1.0) == pytest.approx(100e-6)

    @given(st.lists(st.floats(min_value=1e-9, max_value=1e3,
                              allow_nan=False), min_size=1, max_size=500))
    @settings(max_examples=40, deadline=None)
    def test_percentile_bounds_property(self, samples):
        hist = LatencyHistogram()
        for value in samples:
            hist.record(value)
        assert hist.percentile(0.0) <= hist.percentile(1.0)
        assert hist.percentile(1.0) <= hist.peak * (1 + 1e-12)
        assert hist.count == len(samples)
