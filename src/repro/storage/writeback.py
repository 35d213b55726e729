"""Write-back: the destage stage of the paper's Fig. 1.

A full bin leaves the bin buffer as one sequential SSD write; with no
bin buffer each stored chunk is its own write.  Destage is asynchronous
and does not backpressure the reduction path: the paper measures
reduction throughput against the SSD as a *yardstick*, not a
destage-limited figure (its dedup result is 3x the SSD's own rate,
which is only possible on those terms).  So a destage write is a
booking on the SSD's channel ledger and never a calendar entry.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.stages import STAGE_DESTAGE, TRACK_DESTAGE
from repro.obs.tracer import SimTracer
from repro.sim import Environment
from repro.storage.ssd import SsdModel


class WriteBack:
    """Destage to one SSD, counted in ``batches`` and ``bytes``."""

    def __init__(self, env: Environment, ssd: SsdModel,
                 tracer: Optional[SimTracer] = None):
        self.env = env
        self.ssd = ssd
        self.tracer = tracer
        self.batches = 0
        self.bytes = 0

    def submit(self, nbytes: int, sequential: bool) -> None:
        """Book one asynchronous SSD write (a plain call, not a process);
        ``nbytes <= 0`` raises :class:`~repro.errors.BlockRangeError`."""
        end = self.ssd.write(nbytes, sequential)
        self.batches += 1
        self.bytes += nbytes
        if self.tracer is not None:
            self.tracer.record(
                STAGE_DESTAGE, None, start=self.env.now, end=end,
                resource=TRACK_DESTAGE,
                attrs={"bytes": nbytes, "sequential": sequential})

    def drain(self, batches: list) -> None:
        """Destage the batches still staged at shutdown, one write each:
        N service times and their sum end at different floats, and the
        report contract is *byte* identity (DESIGN.md §12)."""
        for batch in batches:
            self.submit(batch.payload_bytes, sequential=True)

    def window(self, duration: float) -> dict:
        """The report's back-end fields, the drain's writes booked too.

        ``ssd_utilization`` is thus the SSD work the run caused ÷ the
        front-end ``duration``: a demand ratio, above 1 when destage
        outlasts the window.  ROADMAP.md's utilisation item fixes it by
        taking this snapshot before the drain.
        """
        return {"ssd_utilization": self.ssd.utilization(until=duration),
                "destage_batches": self.batches,
                "destage_bytes": self.bytes,
                "nand_bytes_written": self.ssd.nand_bytes_written}
