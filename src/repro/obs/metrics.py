"""Namespaced metrics registry: counters, gauges, histograms.

Before this module every subsystem grew its own ad-hoc statistics —
``DedupEngine.counters`` (a dict), bare attributes on the
pipeline/GPU/SSD/compressor objects.  The registry gives them one API
and one dotted namespace (``dedup.gpu_hits``,
``pipeline.gpu_offload_skips``, ``ssd.nand_bytes_written``) so exporters and
tests read a single snapshot instead of spelunking objects.

Three metric kinds, deliberately minimal:

* :class:`Counter` — monotonically increasing int (events, bytes);
* :class:`Gauge` — last-write-wins float (a ratio, a utilization);
* :class:`Histogram` — distribution, backed by the same log-bucketed
  :class:`~repro.sim.histogram.LatencyHistogram` the pipeline's latency
  reporting uses.

Snapshots iterate in sorted-name order, so JSON export is
deterministic regardless of registration order.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from repro.errors import TraceError
from repro.sim.histogram import LatencyHistogram


class Counter:
    """Monotonically increasing event/byte count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise TraceError(
                f"counter {self.name!r} cannot decrease (by {amount})")
        self.value += amount


class Gauge:
    """Last-write-wins scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Distribution metric over a log-bucketed histogram."""

    __slots__ = ("name", "hist")

    def __init__(self, name: str,
                 hist: Optional[LatencyHistogram] = None):
        self.name = name
        self.hist = hist if hist is not None else LatencyHistogram()

    def summary(self) -> dict[str, float]:
        return self.hist.summary()


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create store of named metrics."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, name: str, kind: type) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise TraceError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def attach_histogram(self, name: str,
                         hist: LatencyHistogram) -> Histogram:
        """Expose an existing histogram (e.g. the pipeline's latency
        histogram) under the registry namespace without copying it."""
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise TraceError(
                    f"metric {name!r} is a "
                    f"{type(existing).__name__}, not a Histogram")
            if existing.hist is not hist:
                raise TraceError(
                    f"metric {name!r} is already backed by a "
                    "different histogram")
            return existing
        metric = Histogram(name, hist)
        self._metrics[name] = metric
        return metric

    def absorb_counters(self, namespace: str,
                        counters: Mapping[str, int]) -> None:
        """Import a live counter dict as ``namespace.key`` counters.

        Re-absorbing applies only the increase since the last call; a
        value below the registry's raises :class:`TraceError`, as
        :meth:`Counter.inc` does — a level that can fall is a gauge.
        """
        for key in sorted(counters):
            metric = self.counter(f"{namespace}.{key}")
            metric.inc(counters[key] - metric.value)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def value(self, name: str):
        """Scalar value (counter/gauge) or summary dict (histogram)."""
        metric = self._metrics.get(name)
        if metric is None:
            raise TraceError(f"unknown metric {name!r}")
        if isinstance(metric, Histogram):
            return metric.summary()
        return metric.value

    def snapshot(self) -> dict[str, object]:
        """Deterministic name -> value/summary mapping."""
        return {name: self.value(name) for name in self.names()}
