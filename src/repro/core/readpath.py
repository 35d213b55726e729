"""Timed read path of the reduced volume.

The paper evaluates the write path — reduction happens inline on writes
— but a primary storage system the paper's intro describes serves reads
too, and the natural question is what reduction *costs* on the read
side.  The answer this module measures: almost nothing.  A read resolves
the logical map (cheap RAM work), fetches the *compressed* extent from
the SSD, and decompresses on the CPU; LZ decode is an order of magnitude
cheaper than encode, and the SSD's page granularity means a half-size
compressed chunk still costs one page read — so read throughput stays
SSD-bound, with a small CPU tax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, Optional, Sequence

from repro.core.cache import ChunkCache
from repro.cpu.costs import DEFAULT_COSTS
from repro.cpu.model import SimCpu
from repro.errors import ConfigError
from repro.sim import Environment, Resource
from repro.storage.metadata import MetadataStore
from repro.storage.ssd import SsdModel


@dataclass
class ReadReport:
    """Outcome of one timed read run."""

    reads: int
    bytes_served: int
    duration_s: float
    cpu_utilization: float
    ssd_utilization: float
    mean_latency_s: float
    decompressed: int
    cache_hits: int = 0

    @property
    def iops(self) -> float:
        return self.reads / self.duration_s if self.duration_s else 0.0


class ReadPipeline:
    """Serve chunk reads from a populated metadata store, timed."""

    def __init__(self, env: Environment, metadata: MetadataStore,
                 window: int = 64,
                 cache: Optional["ChunkCache"] = None):
        if window < 1:
            raise ConfigError(f"invalid window {window}")
        self.env = env
        self.metadata = metadata
        self.cpu = SimCpu(env)
        self.ssd = SsdModel(env)
        self.window = Resource(env, capacity=window, name="read-window")
        #: Optional DRAM chunk cache; hits skip the SSD and the decode.
        self.cache = cache
        self._done = 0
        self._total = 0
        self._finished = env.event()
        self._latency_sum = 0.0
        self._bytes_served = 0
        self._decompressed = 0
        self._cache_hits = 0

    def _read_worker(self, offset: int, slot) -> Generator:
        admitted = self.env.now
        try:
            # Logical-map resolution: RAM work.
            yield self.cpu.charge(DEFAULT_COSTS.metadata_update)
            size, compressed_size = self.metadata.resolve_sizes(offset)
            if self.cache is not None and self.cache.lookup(offset):
                # Cache hit: one probe's worth of CPU, no media, no
                # decode (cached chunks are kept decompressed).
                yield self.cpu.charge(DEFAULT_COSTS.bin_buffer_probe)
                self._cache_hits += 1
                self._bytes_served += size
                return
            # Fetch the stored (compressed) extent.
            yield self.ssd.read(compressed_size)
            # Decompress when the chunk was stored compressed.
            if compressed_size < size:
                yield self.cpu.charge(DEFAULT_COSTS.lz_decode_cycles(size))
                self._decompressed += 1
            if self.cache is not None:
                self.cache.fill(offset, size)
            self._bytes_served += size
        finally:
            self._latency_sum += self.env.now - admitted
            self.window.release(slot)
            self._done += 1
            if self._done == self._total:
                self._finished.succeed()

    def _feeder(self, offsets: Iterable[int]) -> Generator:
        for offset in offsets:
            request = self.window.request()
            yield request
            self.env.process(self._read_worker(offset, request))

    def run(self, offsets: Sequence[int]) -> ReadReport:
        """Serve every offset in ``offsets`` and report.

        A read pipeline runs once, like
        :meth:`~repro.core.pipeline.ReductionPipeline.run`: its clock,
        counters and completion event are the run's.
        """
        if not offsets:
            raise ConfigError("need at least one read")
        if self._total:
            raise ConfigError(
                "ReadPipeline.run() is single-shot; build a new "
                "pipeline for another run")
        self._total = len(offsets)
        self.env.process(self._feeder(offsets))
        self.env.run(until=self._finished)
        duration = self.env.now
        # Drain the calendar so any worker failure surfaces instead of
        # being lost behind the completion event, then check the run
        # wound down cleanly.
        self.env.run()
        self.env.finish_check()
        return ReadReport(
            reads=self._total,
            bytes_served=self._bytes_served,
            duration_s=duration,
            cpu_utilization=self.cpu.utilization(until=duration),
            ssd_utilization=self.ssd.utilization(until=duration),
            mean_latency_s=self._latency_sum / self._total,
            decompressed=self._decompressed,
            cache_hits=self._cache_hits,
        )
