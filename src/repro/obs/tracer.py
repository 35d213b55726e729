"""Sim-time span tracer; tracing off is ``None``.

A :class:`Span` is one interval of **simulated** time (``env.now``
seconds, never wall-clock): a pipeline stage for one chunk, a kernel's
occupancy of the GPU queue, an SSD request on a channel.  Spans carry a
``queue_wait`` component so every stage splits into *waiting for a
resource* vs. *being served* — the split the paper's offload decisions
live or die on.

:class:`SimTracer` appends :class:`Span` records.  Every instrumented
subsystem takes ``tracer=None`` by default and guards its recording
behind ``tracer is not None``, so an untraced run executes the exact
event sequence it executed before tracing existed (byte-identical
reports, enforced by tests).  All *derived* timing math (durations,
queue-wait from an expected service time, proportional splits of a
coalesced charge) lives here, which is what lets rule REP601
(``tests/test_source_rules.py``) ban ad-hoc ``env.now`` arithmetic in
the instrumented subsystems.

Timing invariant: recording must never *change* timing.  Tracer methods
only read ``env.now``; they never yield, charge, or touch the calendar.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import TraceError


class Span:
    """One recorded interval of simulated time."""

    __slots__ = ("stage", "chunk_id", "start", "end", "queue_wait",
                 "resource", "attrs")

    def __init__(self, stage: str, chunk_id: Optional[int], start: float,
                 end: float, queue_wait: float = 0.0,
                 resource: Optional[str] = None,
                 attrs: Optional[dict[str, Any]] = None):
        self.stage = stage
        self.chunk_id = chunk_id
        self.start = start
        self.end = end
        self.queue_wait = queue_wait
        self.resource = resource
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Total span length (queue wait + service)."""
        return self.end - self.start

    def __repr__(self) -> str:
        who = f"#{self.chunk_id}" if self.chunk_id is not None else \
            (self.resource or "-")
        return (f"<Span {self.stage} {who} "
                f"[{self.start:.6f}..{self.end:.6f}] "
                f"qw={self.queue_wait:.6f}>")


class SimTracer:
    """Collects :class:`Span` records against one environment's clock."""

    def __init__(self, env=None):
        self.env = env
        self.spans: list[Span] = []

    def bind(self, env) -> None:
        """Attach the tracer to the environment whose clock it reads.

        Harnesses construct the tracer before the environment exists
        (``run_mode`` builds its own); the run binds it on entry.
        Rebinding to a different environment is an error — spans from
        two clocks cannot share a timeline.
        """
        if self.env is not None and self.env is not env:
            raise TraceError("tracer is already bound to another "
                             "environment")
        self.env = env

    def now(self) -> float:
        """Current simulated time (requires :meth:`bind`)."""
        if self.env is None:
            raise TraceError("tracer is not bound to an environment")
        return self.env.now

    # -- recording ----------------------------------------------------------

    def record(self, stage: str, chunk_id: Optional[int] = None, *,
               start: float, end: Optional[float] = None,
               queue_wait: float = 0.0, resource: Optional[str] = None,
               attrs: Optional[dict[str, Any]] = None) -> Span:
        """Append one span; ``end`` defaults to the current sim time."""
        if end is None:
            end = self.now()
        if end < start:
            raise TraceError(
                f"span {stage!r} ends before it starts "
                f"({end} < {start})")
        duration = end - start
        if queue_wait < 0.0 or queue_wait > duration:
            # Clamp float-epsilon overshoot; reject real violations.
            if -1e-12 <= queue_wait < 0.0:
                queue_wait = 0.0
            elif duration < queue_wait <= duration + 1e-12:
                queue_wait = duration
            else:
                raise TraceError(
                    f"span {stage!r} queue_wait {queue_wait} outside "
                    f"[0, {duration}]")
        span = Span(stage, chunk_id, start, end, queue_wait, resource,
                    attrs)
        self.spans.append(span)
        return span

    def record_since(self, stage: str, chunk_id: Optional[int],
                     start: float, *, expected_service_s: float = 0.0,
                     resource: Optional[str] = None,
                     attrs: Optional[dict[str, Any]] = None) -> Span:
        """Record ``[start, now]``, deriving queue wait from the known
        service time.

        The instrumented stages know exactly how long their service
        *should* take (``cycles / cpu.spec.thread_hz``); anything beyond that is
        time spent waiting for a hardware thread (or a lock).  A stage
        with no service component (``expected_service_s=0``) is pure
        queueing.
        """
        end = self.now()
        duration = end - start
        queue_wait = duration - expected_service_s
        if queue_wait < 0.0:
            # The expected service estimate can exceed the measured
            # interval only by float rounding; treat as all-service.
            queue_wait = 0.0
        return self.record(stage, chunk_id, start=start, end=end,
                           queue_wait=queue_wait, resource=resource,
                           attrs=attrs)

    def record_split(self, stages: Sequence[str],
                     chunk_id: Optional[int], start: float, *,
                     weights: Sequence[float],
                     expected_service_s: float,
                     resource: Optional[str] = None) -> list[Span]:
        """Split one measured interval into consecutive stage spans.

        The pipeline coalesces adjacent charges (e.g. chunking + SHA-1 +
        handoff) into one CPU round trip for speed; attribution still
        wants them separate.  The measured ``[start, now]`` interval is
        split: contention wait (measured minus expected service) is
        attributed to the *first* stage — that is where the thread
        acquisition happened — and the service portion is divided in
        ``weights`` proportion.
        """
        if len(stages) != len(weights) or not stages:
            raise TraceError("stages and weights must align and be "
                             "non-empty")
        end = self.now()
        duration = end - start
        queue_wait = max(0.0, duration - expected_service_s)
        service = duration - queue_wait
        total_weight = sum(weights)
        if total_weight <= 0:
            raise TraceError(f"non-positive split weights {weights!r}")
        spans = []
        edge = start
        for index, (stage, weight) in enumerate(zip(stages, weights)):
            share = service * (weight / total_weight)
            span_end = edge + queue_wait + share if index == 0 \
                else edge + share
            if index == len(stages) - 1:
                span_end = end  # absorb float residue exactly
            spans.append(self.record(
                stage, chunk_id, start=edge, end=min(span_end, end),
                queue_wait=queue_wait if index == 0 else 0.0,
                resource=resource))
            edge = spans[-1].end
        return spans
