"""Core discrete-event simulation engine.

The engine is deliberately small but complete: events with callbacks, a
binary-heap event calendar, generator-based processes, timeouts, and
``AllOf`` condition events.  The public surface
mirrors SimPy closely enough that anyone who has read SimPy code can read
the timed components of this library.

Determinism: given the same process structure, two runs produce identical
schedules.  Ties in time are broken first by an explicit integer priority
and then by insertion order, never by object identity.

Hot path: zero-delay events (``succeed()``, ``Initialize``) bypass the
heap entirely and go onto per-priority run queues (plain deques)
serviced under the same global (time, priority, insertion-order) key as
the calendar, and a completion nobody listens to never reaches the
calendar at all — see DESIGN.md §7 for the rules.  ``Event``/
``Timeout``/``Process`` are ``__slots__`` classes that set their fields
directly, and ``Timeout`` inlines its scheduling, because event
allocation is the next-largest cost after heap churn.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional, Sequence

from repro.errors import SanitizerError, SimulationError

#: Default scheduling priority.  Lower values fire earlier at equal times.
NORMAL = 1
#: Priority used for events that must fire before normal ones at equal times.
URGENT = 0

_PENDING = object()


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
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

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
        env._normal.append((env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, 0.0)
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
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at 0x{id(self):x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after it is created."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Event.__init__ and _schedule are inlined: Timeout creation is
        # the hottest allocation site in timed pipeline runs.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        env._eid += 1
        if delay == 0.0:
            env._normal.append((env._eid, self))
        else:
            heapq.heappush(env._queue,
                           (env._now + delay, NORMAL, env._eid, self))


class Initialize(Event):
    """Internal event used to start a process at its creation time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._wake)
        env._schedule(self, URGENT, 0.0)


#: What :meth:`Environment.start` resumes a new process with: succeeded,
#: valueless, never scheduled.
_STARTED = Event(None)  # type: ignore[arg-type]
_STARTED._value = None


class Process(Event):
    """A generator-based simulation process.

    The wrapped generator yields :class:`Event` instances.  The process is
    itself an event that triggers with the generator's return value, so
    processes can wait on other processes.  ``eager`` runs the first
    segment inside the constructor (:meth:`Environment.start`) instead
    of behind an :class:`Initialize` hop.  ``_wake`` is ``_resume``
    bound once, the callback every wait appends; it is dropped when the
    generator returns or raises, so a finished process is no cycle.
    """

    __slots__ = ("_generator", "_wake")

    def __init__(self, env: "Environment", generator: Generator,
                 eager: bool = False):
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
        if eager:
            self._resume(_STARTED)
        else:
            Initialize(env, self)

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
                    env._schedule(self, NORMAL, 0.0)
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
                env._schedule(self, NORMAL, 0.0)
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


class _Condition(Event):
    """Base for composite events that fire on a count of their parts."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different envs")
        if self._satisfied():
            self.succeed(self._collect())
            return
        for event in self._events:
            if event.callbacks is None:
                # Already processed before the condition was created.
                self._observe(event)
            else:
                event.callbacks.append(self._observe)

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> dict[Event, Any]:
        # Only events whose callbacks have run count as fired; a Timeout
        # carries its value from creation but has not happened yet.
        return {e: e._value for e in self._events
                if e.callbacks is None and e._ok}


class AllOf(_Condition):
    """Event that fires once *all* of the given events have fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= len(self._events)


class Environment:
    """The simulation environment: clock plus event calendar.

    Two run queues front the heap calendar: events scheduled with zero
    delay land on ``_urgent`` (priority :data:`URGENT`) or ``_normal``
    (priority :data:`NORMAL`) and are serviced without any ``heapq``
    traffic.  Every entry on a run queue carries time ``now`` by
    construction, so the clock can only advance off the heap once both
    run queues are empty — :meth:`step` merges the three sources under
    the exact (time, priority, insertion-order) key the heap alone used
    to enforce.
    """

    __slots__ = ("_now", "_queue", "_urgent", "_normal", "_eid",
                 "_trace", "_finishables", "_alive_processes")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        #: Zero-delay run queues; entries are (eid, event) at time `now`.
        self._urgent: deque[tuple[int, Event]] = deque()
        self._normal: deque[tuple[int, Event]] = deque()
        self._eid = 0
        #: Optional schedule trace: when set to a list, every processed
        #: event appends ``(time, event-type-name)`` — the hook the
        #: golden-schedule determinism tests record through.
        self._trace: Optional[list] = None
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
        drain (``run(until=None)``); a horizon-limited run legitimately
        leaves work pending.
        """
        problems: list[str] = []
        if self._alive_processes:
            problems.append(
                f"{self._alive_processes} process(es) still alive "
                f"(generator never finished)")
        pending = len(self._queue) + len(self._urgent) + len(self._normal)
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
        if when < self._now:
            raise SimulationError(f"timeout at {when!r} is in the past")
        # Event.__init__ inlined: one per CPU charge and SSD read.
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._value = None
        timeout._ok = True
        timeout._defused = False
        self._eid += 1
        heapq.heappush(self._queue, (when, NORMAL, self._eid, timeout))
        return timeout

    def process(self, generator: Generator) -> Process:
        """Register ``generator`` as a process starting now."""
        return Process(self, generator)

    def start(self, generator: Generator) -> Process:
        """Like :meth:`process`, but run the first segment right here.

        ``process()`` defers the first segment behind an URGENT
        :class:`Initialize` entry, and callers can see that: the
        spawner's code after the call runs first, and ``peek()`` reports
        the hop.  ``start()`` skips the hop and resumes the generator
        inside the caller, for spawn sites — one per chunk — where
        nothing the spawner does before its next yield meets anything
        the child's first segment touches (DESIGN.md §7).
        """
        return Process(self, generator, eager=True)

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

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        self._eid += 1
        if delay == 0.0:
            if priority == NORMAL:
                self._normal.append((self._eid, event))
                return
            if priority == URGENT:
                self._urgent.append((self._eid, event))
                return
        heapq.heappush(
            self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._urgent or self._normal:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event.

        The next event is the minimum of the heap head and the two
        run-queue heads under the (time, priority, insertion-order)
        key.  Run-queue entries sit at time ``now``, so a heap entry
        only beats them at that exact time, on (priority, eid).
        """
        queue = self._queue
        entry = None
        if self._urgent:
            if queue:
                head = queue[0]
                # Exact tie check is sound: run-queue entries carry the
                # very `now` the heap timestamps are compared against.
                if head[0] == self._now and (
                        head[1] < URGENT or (head[1] == URGENT
                                             and head[2] < self._urgent[0][0])):
                    entry = heapq.heappop(queue)
            if entry is None:
                event = self._urgent.popleft()[1]
        elif self._normal:
            if queue:
                head = queue[0]
                if head[0] == self._now and (
                        head[1] < NORMAL or (head[1] == NORMAL
                                             and head[2] < self._normal[0][0])):
                    entry = heapq.heappop(queue)
            if entry is None:
                event = self._normal.popleft()[1]
        elif queue:
            entry = heapq.heappop(queue)
        else:
            raise SimulationError("no scheduled events")
        if entry is not None:
            when = entry[0]
            if when < self._now:
                raise SimulationError(
                    f"event scheduled in the past: {when} < {self._now}")
            self._now = when
            event = entry[3]
        if self._trace is not None:
            self._trace.append((self._now, type(event).__name__))
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the calendar drains), a time, or
        an :class:`Event` (run until that event has been processed, returning
        its value).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until={stop_time} lies in the past (now={self._now})")

        step = self.step
        if stop_time == float("inf"):
            # Hot loop: no time horizon to watch, so skip peek().
            if stop_event is None:
                while self._queue or self._urgent or self._normal:
                    step()
            else:
                while (self._queue or self._urgent or self._normal) \
                        and stop_event.callbacks is not None:
                    step()
        else:
            while self._queue or self._urgent or self._normal:
                if stop_event is not None and stop_event.callbacks is None:
                    break
                if self.peek() > stop_time:
                    self._now = stop_time
                    break
                step()

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run() finished but the until-event never fired")
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if until is not None and self._now < stop_time \
                and not (self._queue or self._urgent or self._normal):
            # Calendar drained before the requested horizon: the clock still
            # advances to the horizon so utilization math stays consistent.
            self._now = stop_time
        return None
