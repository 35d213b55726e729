"""Discrete-event simulation substrate.

A small, dependency-free, deterministic event-driven simulator in the style
of SimPy.  Processes are Python generators that ``yield`` events (timeouts and
resource requests); the :class:`~repro.sim.engine.Environment`
advances a virtual clock and resumes processes when their events fire.
Events fire in (time, insertion-order) order, off one heap and one
zero-delay run queue; a process runs its first segment when spawned, and
a run ends when the calendar drains or a given event fires.

Every *timed* component of the reproduction (CPU cores, the GPU, the PCIe
link, the SSD) is built on this engine, which is what lets a single-core
Python process report faithful multi-core / accelerator throughput numbers.
Every utilisation a report carries is a sum of booked ``[start, end]``
intervals in a :class:`UtilizationMonitor`: the CPU threads' and SSD
channels' :class:`ChannelLedger` books its busy runs, the GPU its
launches.  A :class:`Resource` grants slots and keeps no accounting.
"""

from repro.sim.engine import Environment, Event, Process, Timeout
from repro.sim.resources import (ChannelLedger, Request, Resource,
                                 UtilizationMonitor)

__all__ = [
    "ChannelLedger",
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Request",
    "Resource",
    "UtilizationMonitor",
]
