"""Write-back: the destage stage of the paper's Fig. 1.

A full bin leaves the bin buffer as one sequential SSD write; with no
bin buffer each stored chunk is its own write.  Destage is asynchronous
and does not backpressure the reduction path: the paper measures
reduction throughput against the SSD as a *yardstick*, not a
destage-limited figure (its dedup result is 3x the SSD's own rate,
which is only possible on those terms).
"""

from __future__ import annotations

from repro.obs.stages import STAGE_DESTAGE, TRACK_DESTAGE
from repro.obs.tracer import Tracer
from repro.sim import Environment
from repro.storage.block import BlockRequest, RequestKind
from repro.storage.ssd import SsdModel


class WriteBack:
    """Destage to one SSD, counted in ``batches`` and ``bytes``."""

    def __init__(self, env: Environment, ssd: SsdModel, tracer: Tracer):
        self.env = env
        self.ssd = ssd
        self.tracer = tracer
        self.batches = 0
        self.bytes = 0

    def submit(self, nbytes: int, sequential: bool) -> None:
        """One asynchronous SSD write (a plain call, not a process);
        ``nbytes <= 0`` raises :class:`~repro.errors.BlockRangeError`."""
        written = self.ssd.write(BlockRequest(
            RequestKind.WRITE, 0, nbytes, sequential=sequential))
        self.batches += 1
        self.bytes += nbytes
        if self.tracer.enabled:
            start = self.env.now
            written.callbacks.append(lambda _written: self.tracer.record(
                STAGE_DESTAGE, None, start=start, resource=TRACK_DESTAGE,
                attrs={"bytes": nbytes, "sequential": sequential}))

    def drain(self, batches: list) -> None:
        """Destage the batches still staged at shutdown, one write each:
        N service times and their sum end at different floats, and the
        report contract is *byte* identity (DESIGN.md §12)."""
        for batch in batches:
            self.submit(batch.payload_bytes, sequential=True)

    def window(self, duration: float) -> dict:
        """The report's back-end fields, read after the drain has settled.

        ``ssd_utilization`` is thus the SSD work the run caused ÷ the
        front-end ``duration``: a demand ratio, above 1 when destage
        outlasts the window.  ROADMAP.md's utilisation item fixes it by
        taking this snapshot before the drain.
        """
        return {"ssd_utilization": self.ssd.utilization(until=duration),
                "destage_batches": self.batches,
                "destage_bytes": self.bytes,
                "nand_bytes_written": self.ssd.nand_bytes_written}
