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
from repro.cpu.costs import CpuCosts, DEFAULT_COSTS
from repro.cpu.model import SimCpu
from repro.errors import ConfigError
from repro.sim import Environment, Resource
from repro.storage.block import BlockRequest, RequestKind
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

    @property
    def mb_per_s(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.bytes_served / self.duration_s / 1e6


class ReadPipeline:
    """Serve chunk reads from a populated metadata store, timed."""

    def __init__(self, env: Environment, metadata: MetadataStore,
                 cpu: Optional[SimCpu] = None,
                 ssd: Optional[SsdModel] = None,
                 costs: CpuCosts = DEFAULT_COSTS,
                 window: int = 64,
                 decompress: bool = True,
                 cache: Optional["ChunkCache"] = None):
        if window < 1:
            raise ConfigError(f"invalid window {window}")
        self.env = env
        self.metadata = metadata
        self.cpu = cpu if cpu is not None else SimCpu(env)
        self.ssd = ssd if ssd is not None else SsdModel(env)
        self.costs = costs
        self.window = Resource(env, capacity=window, name="read-window")
        self.decompress = decompress
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
            yield self.cpu.charge(self.costs.metadata_update)
            record = self.metadata.resolve(offset)
            if self.cache is not None and self.cache.lookup(offset):
                # Cache hit: one probe's worth of CPU, no media, no
                # decode (cached chunks are kept decompressed).
                yield self.cpu.charge(self.costs.bin_buffer_probe)
                self._cache_hits += 1
                self._bytes_served += record.size
                return
            # Fetch the stored (compressed) extent.
            yield from self.ssd.submit(BlockRequest(
                RequestKind.READ, 0, record.compressed_size))
            # Decompress when the chunk was stored compressed.
            if self.decompress and record.compressed_size < record.size:
                yield self.cpu.charge(
                    self.costs.lz_decode_cycles(record.size))
                self._decompressed += 1
            if self.cache is not None:
                self.cache.fill(offset, record.size)
            self._bytes_served += record.size
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
            self.env.start(self._read_worker(offset, request))

    def run(self, offsets: Sequence[int]) -> ReadReport:
        """Serve every offset in ``offsets`` and report."""
        if not offsets:
            raise ConfigError("need at least one read")
        self._total = len(offsets)
        self.env.process(self._feeder(offsets))
        self.env.run(until=self._finished)
        duration = self.env.now
        # Drain the calendar so any worker failure surfaces instead of
        # being lost behind the completion event.
        self.env.run()
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
