"""Shared-resource primitives for the simulation engine.

:class:`Resource` models a counted resource (CPU hardware threads, the GPU
command queue, SSD channels) with FIFO granting, claimed either with an
explicit :class:`Request` or — when the slot is simply kept for a known
time — with a one-event :class:`Hold`.  It records enough history to
report time-weighted utilization, which the benchmark harness surfaces
as "CPU utilization" / "GPU utilization" in the paper-style reports.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Optional

from repro.errors import ResourceError
from repro.sim.engine import NORMAL, Environment, Event, _PENDING


class UtilizationMonitor:
    """Time-weighted occupancy accounting for a counted resource."""

    __slots__ = ("_env", "_capacity", "_level", "_last_change", "_area",
                 "_peak", "_start")

    def __init__(self, env: Environment, capacity: int):
        self._env = env
        self._capacity = capacity
        self._level = 0
        self._last_change = env.now
        self._area = 0.0  # integral of level over time
        self._peak = 0
        self._start = env.now

    def change(self, delta: int) -> None:
        """Record the occupancy changing by ``delta`` at the current time."""
        now = self._env._now
        level = self._level
        self._area += level * (now - self._last_change)
        level += delta
        self._level = level
        if level > self._peak:
            self._peak = level
        self._last_change = now

    @property
    def level(self) -> int:
        """Current occupancy."""
        return self._level

    @property
    def peak(self) -> int:
        """Maximum occupancy observed."""
        return self._peak

    def utilization(self, until: Optional[float] = None) -> float:
        """Mean fraction of capacity in use from creation until ``until``."""
        end = self._env.now if until is None else until
        elapsed = end - self._start
        if elapsed <= 0:
            return 0.0
        area = self._area + self._level * (end - self._last_change)
        return area / (elapsed * self._capacity)

    def busy_time(self, until: Optional[float] = None) -> float:
        """Total resource-seconds of occupancy (area under the level curve)."""
        end = self._env.now if until is None else until
        return self._area + self._level * (end - self._last_change)


class Request(Event):
    """A pending claim on a :class:`Resource`.

    The event triggers (with the request itself as value) once the resource
    grants a slot.  Release the slot with :meth:`Resource.release` or by
    using the request as a context manager inside a process::

        with cpu.request() as req:
            yield req
            yield env.timeout(work)
    """

    __slots__ = ("resource", "granted")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self.granted = False
        resource._admit(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request (no-op if already granted)."""
        if not self.granted:
            self.resource._withdraw(self)

    def _grant(self) -> None:
        """Take the slot the resource just assigned, and fire."""
        self.resource.users.append(self)
        self.granted = True
        self.succeed(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self.granted:
            self.resource.release(self)
        else:
            self.cancel()


class Hold(Event):
    """A slot kept for a fixed time (:meth:`Resource.hold`).

    Acquire, keep ``delay``, release — behind one event and one
    calendar entry: the hold puts *itself* on the calendar the instant
    it is granted, and fires once the delay has elapsed and the slot is
    back in the pool.  Until granted it waits in the resource's own
    queue, in strict arrival order with :class:`Request` users.  A
    granted hold is anonymous: counted, never listed in
    ``Resource.users``.
    """

    __slots__ = ("resource", "delay", "granted_at")

    def __init__(self, resource: "Resource", delay: float):
        # Event.__init__ inlined: one hold per CPU charge makes this the
        # hottest allocation site of a descriptor-mode run.
        self.env = resource.env
        self.resource = resource
        # The resource's expiry hook goes first, so the slot moves on to
        # the next waiter *before* the holder (appended when it yields
        # the hold) resumes.
        self.callbacks = [resource._on_expiry]
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.delay = delay
        #: Simulated time the slot was granted; None while waiting.
        self.granted_at: Optional[float] = None

    def _grant(self) -> None:
        """Start the timed hold on the slot the resource just assigned."""
        self.resource._fast_held += 1
        self._value = None
        env = self.env
        self.granted_at = env._now
        env._schedule(self, NORMAL, self.delay)


class Resource:
    """A counted FIFO resource (e.g. N identical CPU hardware threads)."""

    __slots__ = ("env", "capacity", "name", "users", "queue",
                 "_fast_held", "_on_expiry", "monitor")

    def __init__(self, env: Environment, capacity: int = 1,
                 name: str = "resource"):
        if capacity < 1:
            raise ResourceError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: list[Request] = []
        #: Waiters (requests and holds) in grant order.
        self.queue: deque[Event] | list = deque()
        #: Slots held anonymously by granted :class:`Hold` events.
        self._fast_held = 0
        #: The one bound method every hold carries as its first callback.
        self._on_expiry = self._hold_expired
        self.monitor = UtilizationMonitor(env, capacity)
        env.register_finishable(self)

    @property
    def count(self) -> int:
        """Number of slots currently granted."""
        return len(self.users) + self._fast_held

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a granted slot to the pool."""
        try:
            self.users.remove(request)
        except ValueError:
            raise ResourceError(
                f"{self.name}: releasing a request that is not granted")
        self._vacate()

    def hold(self, delay: float) -> Hold:
        """Acquire a slot, keep it ``delay``, release: ONE yieldable event.

        The replacement for ``request()`` + ``timeout(delay)`` +
        ``release()`` where nothing happens in between: one event
        object and one calendar entry per hold, whether it was granted
        at once or had to queue.  The event fires at the instant the
        delay has elapsed; by then the slot has already gone to the
        next waiter.  Usage from a process::

            yield cpu_threads.hold(work_seconds)

        A hold cannot be cancelled: a holder that is interrupted while
        waiting still occupies the slot for the full delay.
        """
        if delay < 0:
            raise ResourceError(f"{self.name}: negative hold {delay!r}")
        hold = Hold(self, delay)
        self._admit(hold)
        return hold

    def _hold_expired(self, _hold: Event) -> None:
        if self._fast_held < 1:
            raise ResourceError(
                f"{self.name}: a hold expired that holds no slot")
        self._fast_held -= 1
        self._vacate()

    # -- end-of-run sanitizer ----------------------------------------------

    def finish_violations(self) -> list[str]:
        """Leaks still held at end of run, for ``Environment.finish_check``."""
        out: list[str] = []
        held = len(self.users) + self._fast_held
        if held:
            out.append(
                f"resource `{self.name}`: {held} slot(s) still held "
                f"({self._fast_held} by unexpired hold()s)")
        if self.queue:
            out.append(
                f"resource `{self.name}`: {len(self.queue)} request(s) "
                f"still waiting for a slot")
        return out

    # -- internals ---------------------------------------------------------

    def _admit(self, waiter: Event) -> None:
        """Grant ``waiter`` a slot now, or queue it behind earlier ones."""
        if self.queue or \
                len(self.users) + self._fast_held >= self.capacity:
            self._park(waiter)
        else:
            self.monitor.change(+1)
            waiter._grant()

    def _vacate(self) -> None:
        """A slot fell free: the next waiter inherits it.

        Waiters only exist while the pool is full, so a handoff leaves
        occupancy unchanged and the monitor needs no update.
        """
        if self.queue:
            self._pop_waiter()._grant()
        else:
            self.monitor.change(-1)

    def _park(self, waiter: Event) -> None:
        self.queue.append(waiter)

    def _pop_waiter(self) -> Event:
        return self.queue.popleft()

    def _withdraw(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass


class PriorityRequest(Request):
    """A resource claim with an explicit priority (lower = sooner)."""

    __slots__ = ("priority",)

    def __init__(self, resource: "PriorityResource", priority: int):
        self.priority = priority
        super().__init__(resource)


class PriorityResource(Resource):
    """A counted resource granting waiters by priority, then FIFO.

    Used for the GPU command queue when the priority-scheduling
    extension is on: latency-critical index batches overtake queued
    compression batches (work already *running* is never preempted —
    real devices don't preempt kernels either).  ``queue`` is a heap of
    ``(priority, arrival, waiter)`` here; a :meth:`hold` waits at
    priority 0.
    """

    __slots__ = ("_seq",)

    def __init__(self, env: Environment, capacity: int = 1,
                 name: str = "priority-resource"):
        super().__init__(env, capacity, name)
        self.queue = []
        self._seq = 0

    def request(self, priority: int = 0) -> PriorityRequest:
        """Claim a slot at the given priority."""
        return PriorityRequest(self, priority)

    # -- internals: heap-ordered waiting ----------------------------------------

    def _park(self, waiter: Event) -> None:
        self._seq += 1
        heapq.heappush(self.queue, (getattr(waiter, "priority", 0),
                                    self._seq, waiter))

    def _pop_waiter(self) -> Event:
        return heapq.heappop(self.queue)[2]

    def _withdraw(self, request: Request) -> None:
        heap = self.queue
        for i, (_p, _s, waiting) in enumerate(heap):
            if waiting is request:
                heap[i] = heap[-1]
                heap.pop()
                heapq.heapify(heap)
                return
