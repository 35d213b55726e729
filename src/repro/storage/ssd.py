"""Channelled SSD timing and wear model.

Calibrated to the Samsung SSD 830 the paper benchmarks against:
~320 MB/s sustained writes, which at 4 KiB equals the ~80 K IOPS the
paper quotes, and ~520 MB/s reads.

The model is deliberately structural rather than a flat rate limiter:

* the device has N independent channels, served first come first served
  off a ledger of the instants each falls free: a request starts at
  ``max(now, earliest free)``, so its interval is known at submit — a
  write is a booking and no event, a read a booking and one timeout;
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
from typing import Optional

from repro.errors import BlockRangeError
from repro.obs.stages import (
    STAGE_SSD_READ,
    STAGE_SSD_WRITE,
    TRACK_SSD,
)
from repro.obs.tracer import SimTracer
from repro.sim import ChannelLedger, Environment, Timeout


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

    def __init__(self, env: Environment,
                 tracer: Optional[SimTracer] = None):
        self.env = env
        self.spec = spec = SAMSUNG_SSD_830
        self.tracer = tracer
        #: The channels, first come first served, booked at submit.
        self.ledger = ChannelLedger(env, spec.channels)
        # The spec is frozen: read its derived times once, not per request.
        self._page_bytes = spec.page_bytes
        self._page_program_s = spec.page_program_s
        self._page_read_s = spec.page_read_s
        # -- statistics, counted at booking: mid-run, in-flight too --
        self.host_bytes_written = 0
        self.host_bytes_read = 0
        #: Actual NAND program volume: the endurance metric.
        self.nand_bytes_written = 0
        self.requests_completed = 0

    # -- timing helpers ------------------------------------------------------

    def service_time(self, nbytes: int, page_s: float,
                     sequential: bool) -> float:
        """Channel occupancy of one ``nbytes`` request at ``page_s`` per
        page (the program time for writes, the read time for reads)."""
        pages = -(-nbytes // self._page_bytes)  # ceil division
        # Sequential streams let the firmware pipeline page programs
        # slightly better than scattered ones.
        efficiency = 1.0 if sequential else 1.05
        return self.spec.per_io_overhead_s + pages * page_s * efficiency

    # -- requests ------------------------------------------------------------

    def write(self, nbytes: int, sequential: bool) -> float:
        """Book a write; returns its completion instant, no event (a
        caller that waits yields ``env.timeout_at(instant)``)."""
        end = self._book(nbytes, self._page_program_s, sequential,
                         STAGE_SSD_WRITE)
        self.host_bytes_written += nbytes
        self.nand_bytes_written += \
            -(-nbytes // self._page_bytes) * self._page_bytes
        return end

    def read(self, nbytes: int) -> Timeout:
        """Book a read, never sequential; returns the timeout that fires
        as it completes: ``yield ssd.read(4096)``."""
        end = self._book(nbytes, self._page_read_s, False, STAGE_SSD_READ)
        self.host_bytes_read += nbytes
        return self.env.timeout_at(end)

    def _book(self, nbytes: int, page_s: float, sequential: bool,
              stage: str) -> float:
        """Take the earliest-free channel; returns the end instant.
        A size outside ``(0, capacity]`` raises before anything is
        booked or counted."""
        if not 0 < nbytes <= self.spec.capacity_bytes:
            raise BlockRangeError(
                f"{nbytes}-byte request outside (0, "
                f"{self.spec.capacity_bytes}]")
        service = self.service_time(nbytes, page_s, sequential)
        start = self.ledger.book(service)
        end = start + service
        self.requests_completed += 1
        if self.tracer is not None:
            submitted = self.env.now
            self.tracer.record(
                stage, None, start=submitted, end=end,
                queue_wait=start - submitted, resource=TRACK_SSD,
                attrs={"bytes": nbytes, "sequential": sequential})
        return end

    # -- reporting --------------------------------------------------------

    def utilization(self, until: Optional[float] = None) -> float:
        """Booked channel-seconds ÷ (channels × time to ``until``): a
        demand ratio (:meth:`ChannelLedger.utilization`), so it can
        exceed 1."""
        return self.ledger.utilization(until)

    def __repr__(self) -> str:
        return (f"<SsdModel {self.spec.name}: "
                f"{self.nand_bytes_written} B programmed>")
