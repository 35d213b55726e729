"""Core discrete-event simulation engine.

The engine is deliberately small: events with callbacks, a binary-heap
event calendar, generator-based processes and timeouts — only what the
simulator drives.  The public surface mirrors SimPy closely enough that
anyone who has read SimPy code can read the timed components of this
library.

Determinism: given the same process structure, two runs produce identical
schedules.  Ties in time are broken by insertion order, never by object
identity.

Hot path: zero-delay events (``succeed()``, a listened-to process
completion) bypass the heap and go onto one run queue (a plain deque)
serviced under the same global (time, insertion-order) key as the
calendar; a process runs its first segment inside the spawner, and a
completion nobody listens to never reaches the calendar at all — see
DESIGN.md §7 for the rules.  ``Event``/``Timeout``/``Process`` are
``__slots__`` classes that set their fields directly, and ``Timeout``
inlines its scheduling, because event allocation is the next-largest
cost after heap churn.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Optional, Sequence

from repro.errors import SanitizerError, SimulationError

_PENDING = object()
_INF = float("inf")


class Event:
    """A happening that processes can wait on.

    An event starts *pending*; it becomes *triggered* when scheduled with a
    value (or an exception) and *processed* once its callbacks have run.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        #: Set when a failure value was consumed by a waiting process, so the
        #: engine does not complain about an unhandled failure.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on (or past) the calendar."""
        return self._value is not _PENDING

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid += 1
        env._ready.append((env._eid, self))
        return self

    def _trigger_now(self, value: Any = None) -> None:
        """Trigger successfully and run callbacks synchronously.

        Fast-path internal: skips the calendar entirely, so it is only
        safe from inside another event's callback chain, where the
        engine is already dispatching at the current time — the waiter
        resumes exactly where a zero-delay follow-up event would have
        resumed it, minus the run-queue hop.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = "processed" if self.callbacks is None else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at 0x{id(self):x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after it is created."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not 0.0 <= delay < _INF:  # NaN fails both
            raise SimulationError(
                f"timeout delay {delay!r} is negative or not finite")
        # Event.__init__ and the scheduling are inlined: Timeout creation
        # is the hottest allocation site in timed pipeline runs.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        env._eid += 1
        if delay == 0.0:
            env._ready.append((env._eid, self))
        else:
            heapq.heappush(env._queue, (env._now + delay, env._eid, self))


#: What a new process's first segment is resumed with: succeeded,
#: valueless, never scheduled.
_STARTED = Event(None)  # type: ignore[arg-type]
_STARTED._value = None


class Process(Event):
    """A generator-based simulation process.

    The wrapped generator yields :class:`Event` instances.  The process is
    itself an event that triggers with the generator's return value, so
    processes can wait on other processes.  The first segment runs
    inside the constructor, up to the first yield.  ``_wake`` is
    ``_resume`` bound once, the callback every wait appends; it is
    dropped when the generator returns or raises, so a finished process
    is no cycle.
    """

    __slots__ = ("_generator", "_wake")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"{generator!r} is not a generator — did you call the "
                "process function?")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self._wake = self._resume
        env._alive_processes += 1
        self._resume(_STARTED)

    def _resume(self, event: Event) -> None:
        env = self.env
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self._wake = None
                env._alive_processes -= 1
                if self.callbacks:
                    env._schedule(self)
                else:
                    # Nobody listens: a calendar entry with no callback
                    # is a no-op, so the process is processed on the spot.
                    self.callbacks = None
                break
            except BaseException as exc:
                # Failures always go through the calendar, so an
                # unhandled one is raised by step().
                self._ok = False
                self._value = exc
                self._defused = False
                self._wake = None
                env._alive_processes -= 1
                env._schedule(self)
                break

            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process yielded a non-event: {next_event!r}")
                event = Event(env)
                event._ok = False
                event._value = exc
                event._defused = True
                continue

            if next_event.callbacks is not None:
                # Event not yet processed: wait for it.
                next_event.callbacks.append(self._wake)
                break
            # Event already processed: feed its value back immediately.
            event = next_event


class Environment:
    """The simulation environment: clock plus event calendar.

    One run queue fronts the heap calendar: events scheduled with zero
    delay land on ``_ready`` and are serviced without any ``heapq``
    traffic.  Every entry on it carries time ``now`` by construction,
    so the clock can only advance off the heap once it is empty —
    :meth:`step` merges the two sources under the exact
    (time, insertion-order) key the heap alone would enforce.
    """

    __slots__ = ("_now", "_queue", "_ready", "_eid",
                 "_finishables", "_alive_processes")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        #: Zero-delay run queue; entries are (eid, event) at time `now`.
        self._ready: deque[tuple[int, Event]] = deque()
        self._eid = 0
        #: Objects (resources, batchers) that can report end-of-run leaks.
        self._finishables: list = []
        #: Live process count, maintained by Process itself.
        self._alive_processes = 0

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention in this library)."""
        return self._now

    # -- end-of-run sanitizer ----------------------------------------------

    def register_finishable(self, obj: Any) -> None:
        """Enroll ``obj`` in :meth:`finish_check`.

        ``obj`` must expose ``finish_violations() -> list[str]``
        returning a description of every leak it still holds (occupied
        slots, parked waiters, ...).  Resources and GPU batchers register
        themselves at construction.
        """
        self._finishables.append(obj)

    def finish_check(self) -> None:
        """Assert the simulation wound down cleanly.

        Raises :class:`~repro.errors.SanitizerError` if, after the run,
        any process is still alive, any event is still scheduled, or a
        registered resource reports leaked state.  Call it after a full
        drain (``run()``); a run stopped at an event may legitimately
        leave work pending.
        """
        problems: list[str] = []
        if self._alive_processes:
            problems.append(
                f"{self._alive_processes} process(es) still alive "
                f"(generator never finished)")
        pending = len(self._queue) + len(self._ready)
        if pending:
            problems.append(
                f"{pending} event(s) still scheduled on the calendar")
        for obj in self._finishables:
            for violation in obj.finish_violations():
                problems.append(violation)
        if problems:
            detail = "; ".join(problems)
            raise SanitizerError(
                f"finish_check failed at t={self._now}: {detail}")

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` time units."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float) -> Timeout:
        """A :class:`Timeout` firing at the instant ``when`` itself, not
        at ``now + (when - now)``, which may round to a neighbour."""
        if not self._now <= when < _INF:  # NaN fails both
            raise SimulationError(
                f"timeout at {when!r} is in the past or not finite")
        # Event.__init__ inlined: one per CPU charge and SSD read.
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._value = None
        timeout._ok = True
        timeout._defused = False
        self._eid += 1
        heapq.heappush(self._queue, (when, self._eid, timeout))
        return timeout

    def process(self, generator: Generator) -> Process:
        """Register ``generator`` as a process and run its first segment
        right here, inside the caller, up to its first yield."""
        return Process(self, generator)

    def succeed_all(self, events: Sequence[Event],
                    values: Sequence[Any]) -> None:
        """Succeed ``events[i]`` with ``values[i]`` behind ONE entry.

        The waiters resume back to back in list order at the current
        time — the schedule ``len(events)`` consecutive ``succeed()``
        calls produce, whose entries sit next to each other on the run
        queue — for one run-queue entry instead of one per event.
        """
        if len(events) != len(values):
            raise SimulationError(
                f"{len(events)} events for {len(values)} values")

        def fan_out(_carrier: Event) -> None:
            for event, value in zip(events, values):
                event._trigger_now(value)

        carrier = Event(self)
        carrier.callbacks.append(fan_out)
        carrier.succeed()

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event) -> None:
        """Put a triggered ``event`` on the run queue at ``now``."""
        self._eid += 1
        self._ready.append((self._eid, event))

    def step(self) -> None:
        """Process the single next event.

        The next event is the smaller of the heap head and the run-queue
        head under the (time, insertion-order) key.  Run-queue entries
        sit at time ``now``, so a heap entry only beats them at that
        exact time, on eid.
        """
        queue = self._queue
        ready = self._ready
        if ready:
            # Exact tie check is sound: run-queue entries carry the very
            # `now` the heap timestamps are compared against.
            if queue and queue[0][0] == self._now \
                    and queue[0][1] < ready[0][0]:
                event = heapq.heappop(queue)[2]
            else:
                event = ready.popleft()[1]
        elif queue:
            when, _eid, event = heapq.heappop(queue)
            if when < self._now:
                raise SimulationError(
                    f"event scheduled in the past: {when} < {self._now}")
            self._now = when
        else:
            raise SimulationError("no scheduled events")
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def run(self, until: Optional[Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the calendar drains) or an
        :class:`Event` (run until that event has been processed,
        returning its value).
        """
        step = self.step
        if until is None:
            while self._queue or self._ready:
                step()
            return None
        if not isinstance(until, Event):
            raise SimulationError(
                f"until must be an Event or None, not {until!r}")
        while (self._queue or self._ready) and until.callbacks is not None:
            step()
        if not until.triggered:
            raise SimulationError(
                "run() finished but the until-event never fired")
        if not until._ok:
            raise until._value
        return until._value
