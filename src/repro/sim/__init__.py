"""Discrete-event simulation substrate.

A small, dependency-free, deterministic event-driven simulator in the style
of SimPy.  Processes are Python generators that ``yield`` events (timeouts,
resource requests and holds); the :class:`~repro.sim.engine.Environment`
advances a virtual clock and resumes processes when their events fire.

Every *timed* component of the reproduction (CPU cores, the GPU, the PCIe
link, the SSD) is built on this engine, which is what lets a single-core
Python process report faithful multi-core / accelerator throughput numbers.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.resources import Hold, Request, Resource, UtilizationMonitor

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Timeout",
    "Hold",
    "Request",
    "Resource",
    "UtilizationMonitor",
]
