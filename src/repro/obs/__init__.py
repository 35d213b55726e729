"""Observability layer: sim-time tracing, metrics, critical-path reports.

The paper's argument is about *where time goes* on the inline write
path; this package makes that measurable instead of guessed.  Three
pieces (DESIGN.md §10):

* :mod:`repro.obs.tracer` — per-stage spans in **simulated** time;
  tracing off is ``None`` (no tracer object at all), so untraced runs
  stay byte-identical;
* :mod:`repro.obs.metrics` — one namespaced registry absorbing the
  scattered ad-hoc statistics (dedup counters, offload skips, GPU/SSD
  device stats);
* :mod:`repro.obs.export` / :mod:`repro.obs.critical_path` — Chrome
  ``trace_event`` JSON (Perfetto-loadable) and per-stage latency
  attribution with a queue-wait vs. service-time split.

Layering: this package may import only :mod:`repro.errors` and
:mod:`repro.sim` (``tests/test_layering.py`` checks it) — the instrumented
subsystems import *it*, never the other way around.
"""

from repro.obs.critical_path import CriticalPathReport, StageBreakdown
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import SimTracer, Span

__all__ = [
    "Counter",
    "CriticalPathReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SimTracer",
    "Span",
    "StageBreakdown",
    "chrome_trace",
    "validate_chrome_trace",
]
