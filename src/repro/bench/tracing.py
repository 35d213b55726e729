"""Traced-run harness (``repro trace``).

Builds the "trace bundle" the ``trace`` subcommand and the CI
trace-smoke job want: run a timed pipeline with a live
:class:`~repro.obs.SimTracer`, schema-check the Chrome ``trace_event``
export, and summarize the critical path.
"""

from __future__ import annotations

from typing import Any

from repro.core.calibration import run_mode
from repro.core.modes import IntegrationMode
from repro.obs import (
    CriticalPathReport,
    SimTracer,
    chrome_trace,
    validate_chrome_trace,
)


def run_traced(mode: IntegrationMode, chunks: int, **run_kwargs):
    """One pipeline run with tracing on; returns ``(report, tracer)``."""
    tracer = SimTracer()
    report = run_mode(mode, chunks, tracer=tracer, **run_kwargs)
    return report, tracer


def build_trace_bundle(mode: IntegrationMode, chunks: int,
                       **run_kwargs) -> dict[str, Any]:
    """Traced run + exports, unserialized.

    Returns ``report`` (the run's PipelineReport), ``spans``, the Chrome
    ``payload``, its validation ``problems`` (empty = schema-clean), and
    the ``critical_path`` report.
    """
    report, tracer = run_traced(mode, chunks, **run_kwargs)
    payload = chrome_trace(tracer.spans)
    return {
        "mode": mode.value,
        "chunks": chunks,
        "report": report,
        "spans": tracer.spans,
        "payload": payload,
        "problems": validate_chrome_trace(payload),
        "critical_path": CriticalPathReport.from_spans(tracer.spans),
    }
