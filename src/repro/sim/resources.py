"""Shared-resource primitives for the simulation engine.

:class:`Resource` models a counted resource (the GPU command queue, a
lock, a window of slots) with FIFO granting of explicit
:class:`Request` claims.  :class:`ChannelLedger` is the same FIFO pool
for servers kept for a time known when claimed (SSD channels, CPU
threads): a booking, not a queue of events.  A
:class:`UtilizationMonitor` sums booked ``[start, end]`` intervals: the
ledger books its servers' busy runs into one and the GPU its launches,
and the reports surface them as "CPU / GPU / SSD utilization".
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Optional

from repro.errors import ResourceError
from repro.sim.engine import Environment, Event, _PENDING


class UtilizationMonitor:
    """Time-weighted occupancy of ``capacity`` servers, as the sum of
    their booked ``[start, end]`` intervals.

    Busy time = ``Σ (end − start)``, kept exact as Shewchuk partials,
    so it depends only on the level curve the intervals draw: a
    handoff's ``end`` and the next ``start`` are one float and cancel.
    Every interval booked so far counts, including what lies after the
    ``until`` a reading names, so a reading taken after a run's
    shutdown drain is a demand ratio that can exceed 1.
    """

    __slots__ = ("_env", "_capacity", "_partials", "_start")

    def __init__(self, env: Environment, capacity: int):
        self._env = env
        self._capacity = capacity
        self._partials: list[float] = []  # exact Σ (end_k − start_k)
        self._start = env.now

    def book(self, start: float, end: float) -> None:
        """Count one server busy from ``start`` to ``end``."""
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
        """Booked server-seconds ÷ (capacity × time from creation to
        ``until``); intervals booked past ``until`` count too, so it
        can exceed 1."""
        end = self._env.now if until is None else until
        elapsed = end - self._start
        if elapsed <= 0:
            return 0.0
        return math.fsum(self._partials) / (elapsed * self._capacity)


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


class Resource:
    """A counted FIFO resource (e.g. the GPU command queue, a lock)."""

    __slots__ = ("env", "capacity", "name", "users", "queue")

    def __init__(self, env: Environment, capacity: int = 1,
                 name: str = "resource"):
        if capacity < 1:
            raise ResourceError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        #: Granted requests, in grant order; a dict so release is O(1).
        self.users: dict[Request, None] = {}
        #: Waiting requests in grant order.
        self.queue: deque[Request] = deque()
        env.register_finishable(self)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a granted slot to the pool; the next waiter inherits it."""
        try:
            del self.users[request]
        except KeyError:
            raise ResourceError(
                f"{self.name}: releasing a request that is not granted")
        if self.queue:
            self.queue.popleft()._grant()

    # -- end-of-run sanitizer ----------------------------------------------

    def finish_violations(self) -> list[str]:
        """Leaks still held at end of run, for ``Environment.finish_check``."""
        out: list[str] = []
        if self.users:
            out.append(f"resource `{self.name}`: {len(self.users)} "
                       f"slot(s) still held")
        if self.queue:
            out.append(
                f"resource `{self.name}`: {len(self.queue)} request(s) "
                f"still waiting for a slot")
        return out

    # -- internals ---------------------------------------------------------

    def _admit(self, request: Request) -> None:
        """Grant ``request`` a slot now, or queue it behind earlier ones."""
        if self.queue or len(self.users) >= self.capacity:
            self.queue.append(request)
        else:
            request._grant()


class ChannelLedger:
    """N identical servers in FIFO order, scheduled at submit: a heap of
    ``[free at, busy since]`` per server (SSD channels, CPU threads).

    A booking of ``duration`` made at ``now`` starts at ``max(now,
    earliest free)`` and ends at ``start + duration``.  That is the
    Kiefer–Wolfowitz recursion of a FIFO multi-server queue: a FIFO pool
    hands each waiter, in arrival order, the first slot to fall free,
    so every interval is known the instant it is booked (DESIGN.md §7).
    A server's back-to-back bookings telescope into one busy run, booked
    into :attr:`monitor` when the server next idles or when utilisation
    is read.
    """

    __slots__ = ("env", "_heap", "monitor")

    def __init__(self, env: Environment, servers: int):
        self.env = env
        self._heap = [[env.now, env.now] for _ in range(servers)]
        self.monitor = UtilizationMonitor(env, servers)

    def book(self, duration: float) -> float:
        """Take the earliest-free server for ``duration``; returns the
        start instant (the booking ends at ``start + duration``)."""
        if not 0.0 <= duration < math.inf:  # NaN fails both
            raise ResourceError(
                f"booking duration {duration!r} is negative or not finite")
        now = self.env._now
        server = self._heap[0]
        start = server[0]
        if start < now:  # the server idled: its run ended at start
            if server[1] < start:
                self.monitor.book(server[1], start)
            start = server[1] = now
        server[0] = start + duration
        heapq.heapreplace(self._heap, server)  # sift the head back down
        return start

    def utilization(self, until: Optional[float] = None) -> float:
        """Booked server-seconds ÷ (servers × time to ``until``): a demand
        ratio, not the fraction of servers busy — a booking that runs
        past ``until`` counts in full, so it can exceed 1."""
        for server in self._heap:
            if server[1] < server[0]:  # book the open run up to here
                self.monitor.book(server[1], server[0])
                server[1] = server[0]
        heapq.heapify(self._heap)
        return self.monitor.utilization(until)
