"""Channelled SSD timing and wear model.

Calibrated to the Samsung SSD 830 the paper benchmarks against:
~320 MB/s sustained writes, which at 4 KiB equals the ~80 K IOPS the
paper quotes, and ~520 MB/s reads.

The model is deliberately structural rather than a flat rate limiter:

* the device has N independent channels (a :class:`~repro.sim.Resource`);
* one request occupies one channel for ``per_io_overhead + pages x
  page_time``, where ``page_time`` is the NAND program/read time *per
  page per channel* — derived from the rated sequential bandwidth so the
  fully loaded device hits its spec;
* consequence, as on real hardware: a queue-depth-1 workload sees NAND
  latency and a fraction of rated throughput; the rated IOPS need
  channel-level concurrency.  The destage path's buffered, asynchronous
  writes provide exactly that.

Wear accounting (``nand_bytes_written``) is what the inline-vs-background
experiment (A6) reads out: background reduction writes data twice, inline
writes the reduced data once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import ConfigError
from repro.obs.stages import (
    STAGE_SSD_READ,
    STAGE_SSD_WRITE,
    TRACK_SSD,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim import Environment, Event, Resource
from repro.storage.block import BlockRequest, RequestKind


@dataclass(frozen=True)
class SsdSpec:
    """Static description of an SSD."""

    name: str
    capacity_bytes: int
    channels: int
    page_bytes: int
    seq_write_bps: float
    seq_read_bps: float
    #: Per-request firmware/interface overhead (seconds).
    per_io_overhead_s: float = 2.0e-6

    @property
    def page_program_s(self) -> float:
        """NAND program time per page on one channel."""
        return self.channels * self.page_bytes / self.seq_write_bps

    @property
    def page_read_s(self) -> float:
        """NAND read time per page on one channel."""
        return self.channels * self.page_bytes / self.seq_read_bps

    @property
    def write_iops_4k(self) -> float:
        """Rated small-write throughput — the paper's SSD yardstick."""
        per_page = self.per_io_overhead_s + self.page_program_s
        return self.channels / per_page


#: The paper's comparison device (512 GB class 830).
SAMSUNG_SSD_830 = SsdSpec(
    name="Samsung SSD 830",
    capacity_bytes=512 * 1000**3,
    channels=8,
    page_bytes=4096,
    seq_write_bps=320e6,
    seq_read_bps=520e6,
)


class SsdModel:
    """A timed SSD attached to a simulation environment."""

    def __init__(self, env: Environment, tracer: Tracer = NULL_TRACER):
        self.env = env
        self.spec = SAMSUNG_SSD_830
        self.tracer = tracer
        self.channels = Resource(env, capacity=self.spec.channels,
                                 name="ssd-channels")
        # -- statistics --
        self.host_bytes_written = 0
        self.host_bytes_read = 0
        #: Actual NAND program volume: the endurance metric.
        self.nand_bytes_written = 0
        self.requests_completed = 0

    # -- timing helpers ------------------------------------------------------

    def _pages(self, size: int) -> int:
        return -(-size // self.spec.page_bytes)  # ceil division

    def service_time(self, request: BlockRequest) -> float:
        """Channel occupancy time for one request."""
        pages = self._pages(request.size)
        page_time = (self.spec.page_program_s
                     if request.kind is RequestKind.WRITE
                     else self.spec.page_read_s)
        # Sequential streams let the firmware pipeline page programs
        # slightly better than scattered ones.
        efficiency = 1.0 if request.sequential else 1.05
        return self.spec.per_io_overhead_s + pages * page_time * efficiency

    # -- simulation process ----------------------------------------------------

    def submit(self, request: BlockRequest) -> Generator:
        """Process body: execute a read on one channel.

        Usage::

            yield from ssd.submit(BlockRequest(RequestKind.READ, 0, 4096))

        Writes go through :meth:`write`.
        """
        if request.kind is RequestKind.WRITE:
            raise ConfigError("submit() takes reads; "
                              "use write() for a WRITE request")
        request.validate_against(self.spec.capacity_bytes)
        traced = self.tracer.enabled
        if traced:
            submitted = self.env.now
        with self.channels.request() as req:
            yield req
            if traced:
                granted = self.env.now
            yield self.env.timeout(self.service_time(request))
        if traced:
            self.tracer.record(
                STAGE_SSD_READ, None, start=submitted,
                queue_wait=granted - submitted, resource=TRACK_SSD,
                attrs={"bytes": request.size,
                       "sequential": request.sequential})
        self.requests_completed += 1
        self.host_bytes_read += request.size

    def write(self, request: BlockRequest) -> Event:
        """Execute a write on one channel; returns its completion event.

        No process is needed: one channel hold for the service time,
        with the statistics booked as the hold expires.
        Fire-and-forget callers (destage) simply drop the event.
        """
        if request.kind is not RequestKind.WRITE:
            raise ConfigError(f"write() got a {request.kind.name} request")
        request.validate_against(self.spec.capacity_bytes)
        submitted = self.env.now
        done = self.channels.hold(self.service_time(request))

        def completed(_done: Event) -> None:
            if self.tracer.enabled:
                self.tracer.record(
                    STAGE_SSD_WRITE, None, start=submitted,
                    queue_wait=done.granted_at - submitted,
                    resource=TRACK_SSD,
                    attrs={"bytes": request.size,
                           "sequential": request.sequential})
            self.requests_completed += 1
            self.host_bytes_written += request.size
            self.nand_bytes_written += \
                self._pages(request.size) * self.spec.page_bytes

        done.callbacks.append(completed)
        return done

    # -- reporting --------------------------------------------------------

    def utilization(self, until: Optional[float] = None) -> float:
        """Mean fraction of channels busy."""
        return self.channels.monitor.utilization(until)

    def __repr__(self) -> str:
        return (f"<SsdModel {self.spec.name}: "
                f"{self.nand_bytes_written} B programmed>")
