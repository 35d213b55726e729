"""The integrated inline data-reduction pipeline (paper Fig. 1).

One :class:`ReductionPipeline` run drives a chunk stream through the
paper's workflow on the timed substrates:

1. **chunk + hash** on a CPU hardware thread;
2. **GPU indexing** first, when the mode allows it, the GPU exists, and
   the CPU is saturated (the paper's §3.1(3) rule) — batched lookups
   through the device's in-order queue;
3. **CPU indexing** for chunks the GPU did not resolve: bin-buffer probe,
   then bin-tree probe (the probe is skipped when an eviction-free GPU
   index already proved the fingerprint absent);
4. duplicates are mapped onto their stored copy; uniques continue to
5. **compression**, on the CPU (chunk-per-thread QuickLZ-class) or on the
   GPU (segment-parallel LZ batches + CPU post-processing refinement);
6. **commit**: metadata insert + bin-buffer staging; a full bin flushes —
   entries move to the bin tree and the GPU bins, and the bin's
   compressed payload destages to the SSD as one sequential write.

Concurrency: admission of chunks into the pipeline is gated by a window
of in-flight slots (the inline path's bounded outstanding I/O).  That
window is load-bearing for the paper's Fig. 2: in ``GPU_BOTH`` mode,
index lookups queue behind multi-millisecond compression batches, chunk
latency inflates, the window throttles admission, and throughput drops
below ``GPU_COMP`` — exactly the contention the paper reports.

The destage path is asynchronous and does not backpressure the reduction
path; the paper's throughput numbers are reduction-operation throughput
measured against the SSD as a *yardstick*, not an end-to-end
destage-limited figure (its dedup result is 3x the SSD's own rate, which
is only possible on those terms).
"""

from __future__ import annotations

from itertools import islice
from typing import Generator, Iterable, Optional

from repro.chunkbatch import iter_windows
from repro.core.batcher import GpuBatcher
from repro.core.config import PipelineConfig
from repro.core.scheduler import OffloadScheduler
from repro.core.stats import PipelineReport
from repro.compression.gpu_lz import GpuCompressor
from repro.compression.parallel_cpu import CpuCompressor
from repro.cpu.costs import CpuCosts, DEFAULT_COSTS
from repro.cpu.model import SimCpu
from repro.dedup.engine import DedupEngine
from repro.dedup.gpu_index import GpuBinIndex
from repro.dedup.hashing import fingerprint_window
from repro.dedup.replacement import RandomReplacement
from repro.errors import ConfigError
from repro.gpu.costs import DEFAULT_GPU_COSTS, GpuKernelCosts
from repro.gpu.device import GpuDevice
from repro.obs.metrics import MetricsRegistry
from repro.obs.stages import (
    CTR_BUFFER_HITS,
    CTR_PENDING_HITS,
    STAGE_ADMISSION,
    STAGE_CHUNK,
    STAGE_CHUNKING,
    STAGE_COMMIT,
    STAGE_COMPACTION,
    STAGE_COMPRESS,
    STAGE_CPU_INDEX,
    STAGE_DESTAGE,
    STAGE_FINGERPRINT,
    STAGE_GPU_INDEX,
    STAGE_PENDING_WAIT,
    STAGE_POSTPROCESS,
    TRACK_COMPACTION,
    TRACK_DESTAGE,
    TRACK_WINDOW,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.tenancy.controller import TenancyController
from repro.sim import Environment, Event, Resource
from repro.sim.histogram import LatencyHistogram
from repro.storage.block import BlockRequest, RequestKind
from repro.storage.ssd import SsdModel
from repro.types import Chunk


class ReductionPipeline:
    """Timed, integrated dedup + compression over simulated hardware."""

    def __init__(self, env: Environment, config: PipelineConfig,
                 cpu: Optional[SimCpu] = None,
                 gpu: Optional[GpuDevice] = None,
                 ssd: Optional[SsdModel] = None,
                 cpu_costs: CpuCosts = DEFAULT_COSTS,
                 gpu_costs: GpuKernelCosts = DEFAULT_GPU_COSTS,
                 tracer: Tracer = NULL_TRACER):
        self.env = env
        self.config = config
        self.costs = cpu_costs
        self.tracer = tracer
        self.cpu = cpu if cpu is not None else SimCpu(env)
        self.ssd = ssd if ssd is not None else SsdModel(env, tracer=tracer)
        needs_gpu = (config.mode.gpu_for_dedup
                     or config.mode.gpu_for_compression)
        if needs_gpu and gpu is None:
            gpu = GpuDevice(env,
                            priority_queue=config.gpu_queue_priority,
                            tracer=tracer)
        self.gpu = gpu

        gpu_index = None
        if config.mode.gpu_for_dedup and config.enable_dedup:
            gpu_index = GpuBinIndex(
                prefix_bytes=config.prefix_bytes,
                bin_capacity=config.gpu_bin_capacity,
                policy=RandomReplacement(seed=7),
                memory=self.gpu.memory if self.gpu else None,
                costs=gpu_costs)
        self.dedup = DedupEngine(
            prefix_bytes=config.prefix_bytes,
            bin_buffer_capacity=config.bin_buffer_capacity,
            bin_buffer_total=config.bin_buffer_total,
            gpu_index=gpu_index,
            costs=cpu_costs) if config.enable_dedup else None

        #: Multi-tenant admission layer (DESIGN.md §13): it replaces the
        #: index and commit stages of the one chunk worker.  None under
        #: the default policy, which keeps every single-stream report
        #: byte-identical to a pre-tenancy pipeline.
        self.tenancy: Optional[TenancyController] = None
        if config.tenancy_policy != "none":
            self.tenancy = TenancyController(
                policy=config.tenancy_policy,
                cache_entries=config.tenancy_cache_entries)

        self.cpu_comp = CpuCompressor(costs=cpu_costs)
        self.gpu_comp = GpuCompressor(cpu_costs=cpu_costs,
                                      gpu_costs=gpu_costs)

        self.scheduler = OffloadScheduler(
            self.cpu, policy=config.gpu_index_policy,
            gpu_available=self.gpu is not None)
        self._index_batcher: Optional[GpuBatcher] = None
        self._comp_batcher: Optional[GpuBatcher] = None
        #: One big lock serializing bin-index work in the "global"
        #: baseline; the tenancy cache and a dedup-less run have no bin
        #: index to serialize.
        self._index_lock = (
            Resource(env, capacity=1, name="index-lock")
            if config.index_locking == "global"
            and self.dedup is not None and self.tenancy is None else None)
        self._window = Resource(env, capacity=config.window, name="window")
        #: In-flight fingerprint table: fingerprints currently being
        #: processed as uniques, mapping to the event their commit fires
        #: — None until a twin actually needs one.  A concurrent chunk
        #: with the same fingerprint waits for that commit and then
        #: dedups against it, instead of wastefully compressing the same
        #: content twice (standard inline-dedup in-flight tracking).
        self._pending: dict[bytes, Optional[Event]] = {}
        self._done = 0
        self._total = 0
        self._finished = env.event()
        # -- statistics --
        self.bytes_in = 0
        self.destage_batches = 0
        self.destage_bytes = 0
        self.latency = LatencyHistogram()

    # -- batcher wiring -----------------------------------------------------

    def _start_batchers(self) -> None:
        """Start the GPU batch dispatchers (at run time, not construction:
        an unrun pipeline leaves no live process behind)."""
        cfg = self.config
        if cfg.mode.gpu_for_dedup and cfg.enable_dedup:
            index = self.dedup.gpu_index
            tiled = cfg.gpu_index_tiled
            self._index_batcher = GpuBatcher(
                self.env, self.gpu,
                make_kernel=lambda fps: index.make_kernel(fps,
                                                          tiled=tiled),
                split_results=lambda fps, slots: index.record_results(
                    fps, slots),
                batch_size=cfg.gpu_index_batch,
                max_wait_s=cfg.gpu_batch_wait_s,
                name="gpu-index", priority=0,
                tracer=self.tracer, stage=STAGE_GPU_INDEX)
        if cfg.mode.gpu_for_compression and cfg.enable_compression:
            self._comp_batcher = GpuBatcher(
                self.env, self.gpu,
                make_kernel=self.gpu_comp.make_kernel,
                split_results=self.gpu_comp.split_results,
                batch_size=cfg.gpu_comp_batch,
                max_wait_s=cfg.gpu_batch_wait_s,
                name="gpu-comp", priority=1,
                tracer=self.tracer, stage=STAGE_COMPRESS)

    # -- the per-chunk workflow (Fig. 1) ------------------------------------

    def _index_execute(self, cycles: float) -> Generator:
        """Charge CPU cycles for index work under the global lock.

        The paper's bins need no lock ("without locking mechanism"); the
        conventional shared-table baseline serializes here.
        """
        with self._index_lock.request() as lock:
            yield lock
            yield from self.cpu.execute(cycles)

    def _record(self, stage: str, seq: int, start: float, cycles: float,
                path: Optional[str] = None,
                resource: Optional[str] = None, **attrs) -> None:
        """Trace ``[start, now]`` as one stage span (tracing on only).

        ``cycles`` is the CPU work the interval was charged for; the
        tracer books whatever the interval ran over that as queue wait
        (0 cycles = pure waiting).  The timing math lives in the tracer.
        ``path`` names which way through the stage the chunk took.
        """
        if path is not None:
            attrs["path"] = path
        self.tracer.record_since(
            stage, seq, start,
            expected_service_s=self.cpu.seconds(cycles),
            resource=resource, attrs=attrs or None)

    def _chunk_worker(self, chunk: Chunk, slot, seq: int) -> Generator:
        """Per-chunk pipeline process: ingest, index, compress, commit.

        The whole chunk lifecycle lives in ONE generator frame —
        a nested ``yield from`` delegate would add a frame hop to
        every event resume on the hottest path in the simulator — so
        the stages are sections of this function and their untimed
        halves are plain calls.  Under a tenancy policy the *index*
        verdict comes from ``TenancyController.admit`` instead of the
        bin index and the *commit* stores through
        ``TenancyController.commit`` instead of the bin buffer
        (DESIGN.md §13); everything else is shared.

        ``seq`` is the chunk's admission sequence number: its trace
        identity and the key of its precomputed compression result.
        All tracing is guarded by ``trace`` being non-None, so an
        untraced run executes the exact event sequence it executed
        before tracing existed; the derived timing math (queue-wait
        vs. service splits) lives in the tracer, never here.
        """
        env = self.env
        cpu = self.cpu
        admitted = env.now
        trace = self.tracer if self.tracer.enabled else None
        tenancy = self.tenancy
        tenant = chunk.tenant or 0
        try:
            cfg = self.config
            costs = self.costs
            dedup = self.dedup
            lock = self._index_lock
            fingerprint = chunk.fingerprint

            # -- ingest: chunk + hash + stage handoff, one CPU round trip.
            # A tenant whose locality estimate is under threshold skips
            # inline dedup, hash included; compaction re-fingerprints
            # its chunks in the background.
            admission = None
            hashed = dedup is not None
            if tenancy is not None:
                admission = tenancy.admit(tenant, fingerprint)
                hashed = admission.inline
            ingest = (dedup.ingest_cycles(chunk) if hashed else
                      costs.chunking_cycles(chunk.size)
                      ) + costs.handoff_per_chunk
            yield cpu.charge(ingest)
            if trace is not None and hashed:
                # The coalesced charge covers two workflow stages;
                # split the measured interval by cycle weight.
                chunking = costs.chunking_cycles(chunk.size)
                trace.record_split(
                    (STAGE_CHUNKING, STAGE_FINGERPRINT), seq, admitted,
                    weights=(chunking, ingest - chunking),
                    expected_service_s=cpu.seconds(ingest))
            elif trace is not None:
                self._record(STAGE_CHUNKING, seq, admitted, ingest)

            # -- index: is a stored copy known?  ``path`` names how the
            # chunk resolved as a duplicate (None: unique so far) and
            # ``cycles`` what mapping it onto the stored copy costs.
            path = None
            if hashed and admission is not None:
                start = env.now if trace is not None else 0.0
                yield cpu.charge(costs.bin_buffer_probe)
                if trace is not None:
                    self._record(STAGE_CPU_INDEX, seq, start,
                                 costs.bin_buffer_probe,
                                 path="tenant_cache")
                # A hit whose canonical record is still in flight (or is
                # a compaction-promoted shadow) cannot dedup inline; it
                # stores as a shadow and compaction recovers it.
                if admission.hit and \
                        dedup.metadata.lookup(fingerprint) is not None:
                    path = "tenant_hit"
                    cycles = dedup.commit_duplicate(chunk)
            elif hashed:
                gpu_definitive = False
                if self._index_batcher is not None \
                        and self.scheduler.should_offload_index():
                    # The batcher records the gpu_index span itself
                    # (submit -> kernel completion, per item).
                    hit = yield self._index_batcher.submit(
                        fingerprint, trace_id=seq)
                    if hit:
                        path = "gpu_hit"
                        cycles = dedup.note_gpu_hit(chunk)
                    # An eviction-free GPU index mirrors every flushed
                    # entry, so its miss proves the tree would miss too.
                    gpu_definitive = dedup.gpu_index.evictions == 0
                if path is None:
                    start = env.now if trace is not None else 0.0
                    outcome = dedup.cpu_index_partial(chunk) \
                        if gpu_definitive else dedup.cpu_index(chunk)
                    if lock is None:
                        yield cpu.charge(outcome.cpu_cycles)
                    else:
                        yield from self._index_execute(outcome.cpu_cycles)
                    if trace is not None:
                        self._record(STAGE_CPU_INDEX, seq, start,
                                     outcome.cpu_cycles, path=outcome.path)
                    if outcome.duplicate:
                        path = "duplicate"
                        cycles = dedup.commit_duplicate(chunk)
                    elif fingerprint in self._pending:
                        # In flight: another worker is compressing this
                        # very content right now.  Wait for its commit,
                        # then dedup onto it.
                        start = env.now if trace is not None else 0.0
                        pending = self._pending[fingerprint]
                        if pending is None:
                            pending = self._pending[fingerprint] = \
                                env.event()
                        yield pending
                        if trace is not None:
                            self._record(STAGE_PENDING_WAIT, seq, start,
                                         0.0)
                        dedup.counters[CTR_PENDING_HITS] += 1
                        path = "pending"
                        cycles = dedup.commit_duplicate(chunk)
                    elif dedup.bin_buffer.lookup(fingerprint) is not None:
                        # Our index probe ran earlier in simulated time;
                        # a twin may have committed since.  Its
                        # fingerprint would be in the bin buffer *now*,
                        # so re-probe before claiming uniqueness.
                        dedup.counters[CTR_BUFFER_HITS] += 1
                        path = "buffer_reprobe"
                        cycles = costs.bin_buffer_probe \
                            + dedup.commit_duplicate(chunk)
                    else:
                        self._pending[fingerprint] = None

            if path is not None:
                # Duplicate: mapped onto its stored copy, nothing to
                # compress.  Only the re-probe touched the index again.
                chunk.is_duplicate = True
                start = env.now if trace is not None else 0.0
                if lock is None or path != "buffer_reprobe":
                    yield cpu.charge(cycles)
                else:
                    yield from self._index_execute(cycles)
                if trace is not None:
                    self._record(STAGE_COMMIT, seq, start, cycles,
                                 path=path)
                return
            if admission is not None:
                chunk.is_duplicate = False

            # -- compress --
            blob: Optional[bytes] = None
            if not cfg.enable_compression:
                chunk.compressed_size = chunk.size
            elif self._comp_batcher is not None:
                # The batcher records the compress span itself.
                raw = yield self._comp_batcher.submit(chunk, trace_id=seq)
                start = env.now if trace is not None else 0.0
                result = self.gpu_comp.postprocess(chunk, raw)
                cycles = result.cpu_cycles + costs.handoff_per_chunk
                yield cpu.charge(cycles)
                if trace is not None:
                    self._record(STAGE_POSTPROCESS, seq, start, cycles)
                blob = result.blob
            else:
                start = env.now if trace is not None else 0.0
                result = self.cpu_comp.compress(chunk)
                cycles = result.cpu_cycles + costs.handoff_per_chunk
                yield cpu.charge(cycles)
                if trace is not None:
                    self._record(STAGE_COMPRESS, seq, start, cycles,
                                 resource="cpu",
                                 stored_raw=result.stored_raw)
                blob = result.blob

            # -- commit: metadata + staging, one coalesced charge --
            start = env.now if trace is not None else 0.0
            cycles, path, nbytes, sequential = self._commit(
                seq, tenant, chunk, blob, admission)
            if lock is None:
                yield cpu.charge(cycles)
            else:
                yield from self._index_execute(cycles)
            if trace is not None:
                self._record(STAGE_COMMIT, seq, start, cycles, path=path)
            if nbytes is not None and cfg.destage_enabled:
                self._spawn_destage(nbytes, sequential)
            if admission is not None:
                ready = tenancy.take_compaction_batch()
                if ready is not None:
                    self._spawn_compaction(ready)

        finally:
            elapsed = env.now - admitted
            self.latency.record(elapsed)
            if tenancy is not None:
                tenancy.record_latency(tenant, elapsed)
            if trace is not None:
                # The whole-chunk envelope: exactly the latency sample.
                attrs = {"duplicate": bool(chunk.is_duplicate)}
                if tenancy is not None:
                    attrs["tenant"] = tenant
                trace.record(STAGE_CHUNK, seq, start=admitted,
                             attrs=attrs)
            self._window.release(slot)
            self._done += 1
            if self._done == self._total:
                self._finished.succeed()

    def _commit(self, seq: int, tenant: int, chunk: Chunk,
                blob: Optional[bytes], admission) -> tuple:
        """The functional half of the commit stage (no simulated time).

        Returns ``(cycles, trace path label, bytes to destage now or
        None, sequential)``.  The bin buffer destages a full bin as one
        sequential write; without it every chunk destages on its own.
        """
        costs = self.costs
        if admission is not None:
            path = self.tenancy.commit(seq, tenant, chunk, blob, admission,
                                       self.dedup.metadata)
            cycles = (costs.bin_buffer_insert + costs.metadata_update
                      + costs.destage_submit)
            return cycles, path, chunk.compressed_size, False
        if self.dedup is None:
            cycles = costs.metadata_update + costs.destage_submit
            return cycles, None, chunk.compressed_size, False
        cycles, batch, unique = self.dedup.commit_unique(chunk, blob)
        pending = self._pending.pop(chunk.fingerprint)
        if pending is not None:
            pending.succeed()
        return (cycles, "unique" if unique else "race_duplicate",
                batch.payload_bytes if batch is not None else None, True)

    def _spawn_destage(self, nbytes: int, sequential: bool) -> None:
        """One asynchronous SSD write, booked in the destage counters."""
        self.destage_batches += 1
        self.destage_bytes += nbytes
        if nbytes <= 0:
            return
        written = self.ssd.write(BlockRequest(
            RequestKind.WRITE, 0, nbytes, sequential=sequential))
        if self.tracer.enabled:
            start = self.env.now
            written.callbacks.append(lambda _written: self.tracer.record(
                STAGE_DESTAGE, None, start=start, resource=TRACK_DESTAGE,
                attrs={"bytes": nbytes, "sequential": sequential}))

    def _spawn_compaction(self, entries: list) -> None:
        """One out-of-line compaction epoch as a background process."""
        def compaction() -> Generator:
            with self.tracer.span(STAGE_COMPACTION,
                                  resource=TRACK_COMPACTION,
                                  chunks=len(entries)):
                cycles = self.tenancy.compaction_cycles(entries,
                                                        self.costs)
                yield self.cpu.charge(cycles)
                self.tenancy.apply_compaction(entries,
                                              self.dedup.metadata)

        self.env.start(compaction())

    # -- run ----------------------------------------------------------------

    def _feeder(self, chunks: Iterable[Chunk]) -> Generator:
        """Admit exactly ``total`` chunks, one functional window at a time.

        Per window, the untimed fingerprint pass runs once up front.
        Admission itself — pacing, window-slot acquisition, worker
        spawn — is strictly per chunk, so the timed event schedule does
        not depend on the window size (DESIGN.md §12).
        """
        cfg = self.config
        total = self._total
        rate = cfg.arrival_rate_iops
        gap = 1.0 / rate if rate else 0.0
        next_admission = 0.0
        trace = self.tracer if self.tracer.enabled else None
        chunks = iter(chunks)
        seq = 0
        for window in iter_windows(islice(chunks, total),
                                   cfg.functional_batch):
            if cfg.enable_dedup:
                fingerprint_window(window)
            for chunk in window:
                if gap:
                    delay = next_admission - self.env.now
                    if delay > 0:
                        yield self.env.timeout(delay)
                    next_admission = max(next_admission,
                                         self.env.now) + gap
                request = self._window.request()
                requested = self.env.now if trace is not None else 0.0
                yield request
                if trace is not None:
                    # Pure queueing for a window slot, before admission.
                    self._record(STAGE_ADMISSION, seq, requested, 0.0,
                                 resource=TRACK_WINDOW)
                self.bytes_in += chunk.size
                self.env.start(self._chunk_worker(chunk, request, seq))
                seq += 1
        if seq < total:
            raise ConfigError(
                f"chunk stream ended after {seq} chunks, total={total}")
        if next(chunks, None) is not None:
            raise ConfigError(
                f"chunk stream is longer than total={total}: "
                f"{total} admitted, at least {total + 1} offered")

    def run(self, chunks: Iterable[Chunk], total: int) -> PipelineReport:
        """Process ``total`` chunks from ``chunks`` and report.

        ``total`` must match the iterable's length (it lets the pipeline
        detect completion without materializing the stream); a mismatch
        either way raises :class:`ConfigError`.  A pipeline runs once:
        its counters, clock and index state are the run's.
        """
        if total <= 0:
            raise ConfigError("need at least one chunk")
        if self._total:
            raise ConfigError(
                "ReductionPipeline.run() is single-shot; build a new "
                "pipeline for another run")
        self._total = total
        self._start_batchers()
        self.env.process(self._feeder(chunks))
        self.env.run(until=self._finished)
        duration = self.env.now
        # Snapshot the Fig. 1 counters before the shutdown drain so the
        # report reflects steady-state traffic only.
        counters = dict(self.dedup.counters) if self.dedup else {}
        for batcher in (self._index_batcher, self._comp_batcher):
            if batcher is not None:
                batcher.stop()
        # Shutdown drain: partially filled bins still hold staged data;
        # it must reach the SSD for the endurance ledger to balance.
        # One event per batch, not one coalesced write: a summed service
        # time integrates utilization through a different float
        # segmentation and drifts by an ULP, and the report contract is
        # *byte* identity (DESIGN.md §12).
        if self.dedup is not None and self.config.destage_enabled:
            for batch in self.dedup.drain():
                self._spawn_destage(batch.payload_bytes, sequential=True)
        # Out-of-line compaction drain: every still-deferred shadow copy
        # gets its background epoch before the report reads the
        # metadata store, so recovered duplicates fold into dedup_ratio.
        if self.tenancy is not None:
            for entries in self.tenancy.drain_compaction():
                self._spawn_compaction(entries)
        # Let stragglers (destage writes, batcher shutdown) settle for
        # reporting, without extending the measured duration.
        self.env.run()
        if self.config.finish_check:
            self.env.finish_check()
        return self._report(duration, counters)

    def _report(self, duration: float,
                counters: dict[str, int]) -> PipelineReport:
        metadata = self.dedup.metadata if self.dedup else None
        comp = (self.gpu_comp if self._comp_batcher is not None
                else self.cpu_comp)
        dedup_ratio = metadata.dedup_ratio() if metadata else 1.0
        reduction = metadata.reduction_ratio() if metadata else \
            comp.achieved_ratio()
        return PipelineReport(
            chunks=self._total,
            bytes_in=self.bytes_in,
            duration_s=duration,
            counters=counters,
            cpu_utilization=self.cpu.utilization(until=duration),
            gpu_utilization=(self.gpu.utilization(until=duration)
                             if self.gpu else 0.0),
            ssd_utilization=self.ssd.utilization(until=duration),
            gpu_kernels=self.gpu.kernels_launched if self.gpu else 0,
            gpu_mean_queue_wait_s=(self.gpu.mean_queue_wait()
                                   if self.gpu else 0.0),
            dedup_ratio=dedup_ratio,
            comp_ratio=comp.achieved_ratio(),
            reduction_ratio=reduction,
            destage_batches=self.destage_batches,
            destage_bytes=self.destage_bytes,
            nand_bytes_written=self.ssd.nand_bytes_written,
            mean_latency_s=self.latency.mean,
            peak_latency_s=self.latency.peak,
            latency_percentiles=self.latency.summary(),
            mode=self.config.mode.value,
        )

    def publish_metrics(self,
                        registry: Optional[MetricsRegistry] = None
                        ) -> MetricsRegistry:
        """Export every subsystem's counters into one namespaced registry.

        Idempotent: absorbing the same live counters twice only applies
        the delta, so the registry can be re-published mid-run.
        """
        registry = registry if registry is not None else MetricsRegistry()
        registry.absorb_counters("pipeline", {
            "chunks_done": self._done,
            "bytes_in": self.bytes_in,
            "destage_batches": self.destage_batches,
            "destage_bytes": self.destage_bytes,
            "gpu_offload_skips": self.scheduler.stats.skipped_idle_cpu,
        })
        registry.attach_histogram("pipeline.latency_s", self.latency)
        # Calendar entries this run created: divided by chunks_done it
        # is the engine's events per chunk, from the run's own ledger.
        registry.absorb_counters("sim", {
            "events_scheduled": self.env._eid})
        if self.dedup is not None:
            registry.absorb_counters("dedup", self.dedup.counters)
        if self.tenancy is not None:
            registry.absorb_counters("tenancy", self.tenancy.counters())
        registry.absorb_counters("scheduler",
                                 self.scheduler.stats.as_counters())
        if self.gpu is not None:
            registry.absorb_counters("gpu", {
                "kernels_launched": self.gpu.kernels_launched,
            })
        registry.absorb_counters("ssd", {
            "host_bytes_written": self.ssd.host_bytes_written,
            "host_bytes_read": self.ssd.host_bytes_read,
            "nand_bytes_written": self.ssd.nand_bytes_written,
            "requests_completed": self.ssd.requests_completed,
            "trims": self.ssd.trims,
            "read_retries": self.ssd.read_retries,
        })
        registry.absorb_counters("compress.cpu", self.cpu_comp.stats())
        registry.absorb_counters("compress.gpu", self.gpu_comp.stats())
        for batcher in (self._index_batcher, self._comp_batcher):
            if batcher is not None:
                registry.absorb_counters(f"batcher.{batcher.name}", {
                    "batches_launched": batcher.batches_launched,
                    "items_processed": batcher.items_processed,
                    "wakeups": batcher.wakeups,
                    "deadline_fires": batcher.deadline_fires,
                })
                fill = batcher.fill_summary()
                prefix = f"batcher.{batcher.name}"
                registry.gauge(f"{prefix}.fill_mean").set(
                    fill["mean_fill"])
                registry.gauge(f"{prefix}.fill_p50").set(
                    fill["p50_fill"])
                registry.gauge(f"{prefix}.fill_fraction").set(
                    fill["fill_fraction"])
        return registry
