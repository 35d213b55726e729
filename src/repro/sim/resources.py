"""Shared-resource primitives for the simulation engine.

:class:`Resource` models a counted resource (CPU hardware threads, the GPU
command queue) with FIFO granting, claimed either with an explicit
:class:`Request` or — when the slot is simply kept for a known time —
with a one-event :class:`Hold`.  Its :class:`UtilizationMonitor` keeps
the time-weighted occupancy the reports surface as "CPU utilization" /
"GPU utilization"; the SSD's channel ledger books into one too.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Optional

from repro.errors import ResourceError
from repro.sim.engine import NORMAL, Environment, Event, _PENDING


class UtilizationMonitor:
    """Time-weighted occupancy accounting for a counted resource.

    Area = ``level·end − Σ delta·t``, the sum kept exact as Shewchuk
    partials (``delta`` is ±1), so it depends only on the level curve;
    :meth:`book` adds a whole interval's two terms at once.
    """

    __slots__ = ("_env", "_capacity", "_level", "_partials", "_start")

    def __init__(self, env: Environment, capacity: int):
        self._env = env
        self._capacity = capacity
        self._level = 0
        self._partials: list[float] = []  # exact Σ −delta_k·t_k
        self._start = env.now

    def change(self, delta: int) -> None:
        """Record the occupancy changing by ``delta`` at the current time."""
        self._level += delta
        self._add(-delta * self._env._now)

    def book(self, start: float, end: float) -> None:
        """``change(+1)`` at ``start``, ``change(-1)`` at ``end``, at once."""
        self._add(end)
        self._add(-start)

    def _add(self, x: float) -> None:
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def utilization(self, until: Optional[float] = None) -> float:
        """:meth:`busy_time` ÷ (capacity × time from creation to ``until``);
        occupancy booked after ``until`` counts too, so it can exceed 1."""
        end = self._env.now if until is None else until
        elapsed = end - self._start
        if elapsed <= 0:
            return 0.0
        return self.busy_time(end) / (elapsed * self._capacity)

    def busy_time(self, until: Optional[float] = None) -> float:
        """Total resource-seconds of occupancy (area under the level curve)."""
        end = self._env.now if until is None else until
        return math.fsum(self._partials + [self._level * end])


class Request(Event):
    """A pending claim on a :class:`Resource`.

    The event triggers once the resource grants a slot.  Release the
    slot with :meth:`Resource.release` or by using the request as a
    context manager inside a process::

        with cpu.request() as req:
            yield req
            yield env.timeout(work)
    """

    __slots__ = ("resource", "granted")

    def __init__(self, resource: "Resource"):
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.granted = False
        resource._admit(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request (no-op if already granted)."""
        if not self.granted and self in self.resource.queue:
            self.resource.queue.remove(self)

    def _grant(self) -> None:
        """Take the slot the resource just assigned, and fire."""
        self.resource.users[self] = None
        self.granted = True
        self.succeed()

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

    __slots__ = ("resource", "delay")

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

    def _grant(self) -> None:
        """Start the timed hold on the slot the resource just assigned."""
        self.resource._fast_held += 1
        self._value = None
        env = self.env
        env._eid += 1
        if self.delay == 0.0:
            env._normal.append((env._eid, self))
        else:
            heapq.heappush(env._queue,
                           (env._now + self.delay, NORMAL, env._eid, self))


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
        #: Granted requests, in grant order; a dict so release is O(1).
        self.users: dict[Request, None] = {}
        #: Waiters (requests and holds) in grant order.
        self.queue: deque[Event] = deque()
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
            del self.users[request]
        except KeyError:
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

        A hold cannot be cancelled: once admitted it occupies the slot
        for the full delay.
        """
        if delay < 0:
            raise ResourceError(f"{self.name}: negative hold {delay!r}")
        hold = Hold(self, delay)
        # _admit and _vacate are inlined here and in _hold_expired: one
        # hold per CPU charge makes these the hottest resource paths.
        if self.queue or \
                len(self.users) + self._fast_held >= self.capacity:
            self.queue.append(hold)
        else:
            self.monitor.change(+1)
            hold._grant()
        return hold

    def _hold_expired(self, _hold: Event) -> None:
        if self._fast_held < 1:
            raise ResourceError(
                f"{self.name}: a hold expired that holds no slot")
        self._fast_held -= 1
        if self.queue:
            self.queue.popleft()._grant()
        else:
            self.monitor.change(-1)

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
            self.queue.append(waiter)
        else:
            self.monitor.change(+1)
            waiter._grant()

    def _vacate(self) -> None:
        """A slot fell free: the next waiter inherits it.

        Waiters only exist while the pool is full, so a handoff leaves
        occupancy unchanged and the monitor needs no update.
        """
        if self.queue:
            self.queue.popleft()._grant()
        else:
            self.monitor.change(-1)
