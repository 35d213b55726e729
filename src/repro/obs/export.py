"""Chrome ``trace_event`` export of recorded spans.

Produces the JSON-object flavour of the Trace Event Format (a
``traceEvents`` array of complete events, ``ph: "X"``), which Perfetto
and ``chrome://tracing`` both load.  Track layout:

* per-chunk spans (``chunk_id`` set) go on reusable ``cpu-worker-N``
  lanes — one lane holds one chunk's whole lifecycle (admission wait,
  the chunk envelope, and its nested stage spans), and is recycled for
  a later chunk once free, so a 100k-chunk trace uses window-many
  lanes, not 100k;
* resource spans (``chunk_id`` unset) get one lane group per resource:
  ``gpu-queue`` (kernel occupancy, serialized by the in-order queue),
  ``ssd-N`` (one lane per busy channel), ``destage-N``.

Timestamps are simulated seconds scaled to microseconds — the native
unit of the format — so a Perfetto timeline reads directly in sim time.

:func:`validate_chrome_trace` is the schema gate the tests and the CI
``trace-smoke`` job run: required keys on every event, no negative
durations, and proper nesting per lane (a slice must not half-overlap
another — that renders as garbage).
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Sequence

from repro.obs.tracer import Span

#: Simulated seconds -> trace microseconds.
_US = 1e6
#: Slack for float comparisons, in microseconds (1 ps of sim time).
_EPS_US = 1e-6

_PID = 1
_PROCESS_NAME = "repro-sim"


def _assign_lanes(extents: Sequence[tuple[float, float, Any]]
                  ) -> dict[Any, int]:
    """Greedy interval-coloring: reuse a lane once its interval ends.

    ``extents`` is ``(start, end, key)``; returns ``key -> lane``.
    """
    lanes: dict[Any, int] = {}
    free: list[tuple[float, int]] = []
    next_lane = 0
    for start, end, key in sorted(extents,
                                  key=lambda e: (e[0], e[1])):
        if free and free[0][0] <= start + 1e-12:
            _, lane = heapq.heappop(free)
        else:
            lane = next_lane
            next_lane += 1
        lanes[key] = lane
        heapq.heappush(free, (end, lane))
    return lanes


def _span_args(span: Span) -> dict[str, Any]:
    args: dict[str, Any] = {}
    if span.chunk_id is not None:
        args["chunk_id"] = span.chunk_id
    if span.queue_wait:
        args["queue_wait_us"] = span.queue_wait * _US
    if span.resource is not None:
        args["resource"] = span.resource
    if span.attrs:
        args.update(span.attrs)
    return args


def chrome_trace(spans: Iterable[Span]) -> dict[str, Any]:
    """Build the Chrome ``trace_event`` JSON object for ``spans``."""
    chunk_spans: dict[int, list[Span]] = {}
    resource_spans: dict[str, list[Span]] = {}
    for span in spans:
        if span.chunk_id is not None:
            chunk_spans.setdefault(span.chunk_id, []).append(span)
        else:
            resource_spans.setdefault(span.resource or "misc",
                                      []).append(span)

    # Per-chunk lanes: one extent per chunk covering everything it did.
    chunk_extents = [
        (min(s.start for s in group), max(s.end for s in group),
         chunk_id)
        for chunk_id, group in chunk_spans.items()]
    chunk_lane = _assign_lanes(chunk_extents)
    n_chunk_lanes = (max(chunk_lane.values()) + 1) if chunk_lane else 0

    events: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": _PROCESS_NAME},
    }]
    thread_names: dict[int, str] = {}

    def emit(span: Span, tid: int) -> None:
        events.append({
            "name": span.stage,
            "cat": span.resource or "stage",
            "ph": "X",
            "ts": span.start * _US,
            "dur": span.duration * _US,
            "pid": _PID,
            "tid": tid,
            "args": _span_args(span),
        })

    for chunk_id in sorted(chunk_spans):
        tid = 1 + chunk_lane[chunk_id]
        thread_names.setdefault(tid, f"cpu-worker-{tid - 1}")
        for span in chunk_spans[chunk_id]:
            emit(span, tid)

    tid_base = 1 + n_chunk_lanes
    for resource in sorted(resource_spans):
        group = resource_spans[resource]
        lane_of = _assign_lanes([(s.start, s.end, i)
                                 for i, s in enumerate(group)])
        n_lanes = max(lane_of.values()) + 1
        for index, span in enumerate(group):
            lane = lane_of[index]
            tid = tid_base + lane
            if n_lanes == 1:
                thread_names.setdefault(tid, resource)
            else:
                thread_names.setdefault(tid, f"{resource}-{lane}")
            emit(span, tid)
        tid_base += n_lanes

    for tid in sorted(thread_names):
        events.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
            "args": {"name": thread_names[tid]},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", "time_unit": "us"},
    }


# -- validation --------------------------------------------------------------

_REQUIRED_X_KEYS = ("name", "ph", "ts", "dur", "pid", "tid")


def validate_chrome_trace(payload: Any,
                          max_problems: int = 20) -> list[str]:
    """Schema-check a trace payload; returns problems (empty = valid).

    Enforced rules (the CI ``trace-smoke`` gate):

    * top level is an object with a ``traceEvents`` list;
    * every complete event carries ``name/ph/ts/dur/pid/tid``;
    * no negative timestamp or duration;
    * per lane, slices nest properly: a slice starting inside another
      must end inside it too (half-overlap renders as garbage).
    """
    problems: list[str] = []

    def note(message: str) -> bool:
        problems.append(message)
        return len(problems) >= max_problems

    if not isinstance(payload, dict) or \
            not isinstance(payload.get("traceEvents"), list):
        return ["top level must be an object with a 'traceEvents' "
                "list"]
    lanes: dict[tuple[Any, Any], list[tuple[float, float, str]]] = {}
    for index, event in enumerate(payload["traceEvents"]):
        if not isinstance(event, dict):
            if note(f"event #{index}: not an object"):
                return problems
            continue
        phase = event.get("ph")
        if phase == "M":
            if "name" not in event or "args" not in event:
                if note(f"event #{index}: metadata event missing "
                        "name/args"):
                    return problems
            continue
        if phase != "X":
            if note(f"event #{index}: unsupported phase {phase!r}"):
                return problems
            continue
        missing = [k for k in _REQUIRED_X_KEYS if k not in event]
        if missing:
            if note(f"event #{index}: missing {missing}"):
                return problems
            continue
        ts, dur = event["ts"], event["dur"]
        if not isinstance(ts, (int, float)) or \
                not isinstance(dur, (int, float)):
            if note(f"event #{index}: non-numeric ts/dur"):
                return problems
            continue
        if ts < 0 or dur < 0:
            if note(f"event #{index} ({event['name']!r}): negative "
                    f"ts/dur ({ts}, {dur})"):
                return problems
            continue
        lanes.setdefault((event["pid"], event["tid"]), []).append(
            (ts, ts + dur, event["name"]))

    for (pid, tid), slices in sorted(lanes.items()):
        # Longest-first at equal start => parents precede children.
        slices.sort(key=lambda s: (s[0], -(s[1] - s[0])))
        stack: list[tuple[float, float, str]] = []
        for start, end, name in slices:
            while stack and stack[-1][1] <= start + _EPS_US:
                stack.pop()
            if stack and end > stack[-1][1] + _EPS_US:
                if note(f"lane pid={pid} tid={tid}: slice "
                        f"{name!r} [{start}, {end}] half-overlaps "
                        f"{stack[-1][2]!r} ending at "
                        f"{stack[-1][1]}"):
                    return problems
                continue
            stack.append((start, end, name))
    return problems
