"""Experiment definitions: one function per paper table/figure and per
ablation, and :data:`EXPERIMENTS`, the one table every reader goes
through.

Every function builds fresh simulated hardware, runs the workload the
paper describes (dedup ratio 2.0, compression ratio 2.0, 4 KiB chunks —
scaled by ``n_chunks``; pass ``n_chunks=524288`` for the paper's full
2 GB), and returns what the run produced, keyed by the swept value: the
:class:`~repro.core.stats.PipelineReport` of each point, or a plain
mapping.  Its defaults are the size the table runs.  An
:class:`Experiment` row of the table names the function, how its result
prints, and which of the paper's claims it must reproduce.
``repro bench <id>`` prints one row; ``repro evaluate EXPERIMENTS.md``
reruns them all and rewrites each ``<!-- repro:<id> -->`` region of the
document (:func:`regenerate`).
"""

from __future__ import annotations

import gc
import hashlib
import math
import operator
import random
import re
import tracemalloc
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.bench.reporting import Table
from repro.core.calibration import CalibrationResult, calibrate_mode, run_mode
from repro.core.config import PREFIX_BYTES, PipelineConfig
from repro.core.modes import IntegrationMode
from repro.core.readpath import ReadPipeline, ReadReport
from repro.core.stats import PipelineReport
from repro.compression.delta import DeltaCodec, SimilarityIndex, sketch
from repro.compression.postprocess import compress_payloads
from repro.cpu.costs import DEFAULT_COSTS
from repro.cpu.model import CpuSpec, I7_2600K, SimCpu
from repro.dedup.bins import BinTable
from repro.dedup.engine import DedupEngine
from repro.dedup.gpu_index import GpuBinIndex
from repro.dedup.replacement import (
    FifoReplacement,
    LruReplacement,
    RandomReplacement,
)
from repro.errors import ReproError
from repro.gpu.device import GpuDevice, GpuSpec
from repro.gpu.kernels.indexing_tiled import TiledBinLookupKernel
from repro.gpu.kernels.lz import SegmentLzKernel
from repro.sim import Environment
from repro.storage.ftl import Ftl, FtlSpec
from repro.storage.ssd import SAMSUNG_SSD_830, SsdModel
from repro.storage.volume import PREFIX_BYTES as VOLUME_PREFIX_BYTES
from repro.tenancy import TenantMix, TenantSpec
from repro.tenancy.runner import TenancyRunReport, run_tenant_mix
from repro.types import Chunk
from repro.workload.datagen import BlockContentGenerator
from repro.workload.patterns import ZipfPattern
from repro.workload.vdbench import VdbenchStream

#: The paper's SSD yardstick, quoted everywhere ("about 80 K IOPS").
SSD_IOPS = SAMSUNG_SSD_830.write_iops_4k

_CPU, _DEDUP, _BOTH, _COMP = (IntegrationMode.CPU_ONLY,
                              IntegrationMode.GPU_DEDUP,
                              IntegrationMode.GPU_BOTH,
                              IntegrationMode.GPU_COMP)

#: :func:`run_mode`'s own keywords a sweep may set; every other setting
#: is a :class:`PipelineConfig` field.
_RUN_KEYWORDS = frozenset({"comp_ratio", "cpu_spec", "gpu_spec"})


def _fingerprint(n: int) -> bytes:
    return hashlib.sha1(n.to_bytes(8, "big")).digest()


def _sweep(n_chunks: int, knob: str, values: Iterable,
           **fixed) -> dict[Any, PipelineReport]:
    """One :func:`run_mode` per value of ``knob``: ``{value: report}``.

    ``knob`` and ``fixed`` name the integration ``mode``, a
    :class:`PipelineConfig` field or one of :data:`_RUN_KEYWORDS`.  A
    mapping ``values`` sweeps its values and keys the reports by its
    keys.
    """
    points = values if isinstance(values, Mapping) else \
        dict(zip(values, values))
    reports = {}
    for key, value in points.items():
        settings = {**fixed, knob: value}
        run = {name: settings.pop(name)
               for name in _RUN_KEYWORDS & settings.keys()}
        reports[key] = run_mode(settings["mode"], n_chunks,
                                base_config=PipelineConfig(**settings),
                                **run)
    return reports


# ---------------------------------------------------------------------------
# E1 — §3.1(3): CPU vs GPU indexing execution time (the preliminary
# experiment that decides the GPU is only an indexing co-processor).
# ---------------------------------------------------------------------------

def e1_indexing(batch_sizes: Sequence[int] = (16, 32, 48, 64, 128, 256),
                n_entries: int = 65536) -> dict[int, dict[str, float]]:
    """Time one indexing batch on the CPU and on the GPU:
    ``{batch: {"cpu": seconds, "gpu": seconds}}``.

    Both sides hold the same ``n_entries`` fingerprints ("The number of
    hash table entries used for indexing remains the same on the CPU and
    GPU for a fair comparison").  Half of each batch's queries hit.
    """
    costs = DEFAULT_COSTS
    cpu_table = BinTable(prefix_bytes=1)
    gpu_table = GpuBinIndex(prefix_bytes=1, bin_capacity=8192)
    for i in range(n_entries):
        cpu_table.insert(_fingerprint(i), True)
        gpu_table.insert(_fingerprint(i))

    seconds = {}
    for batch in batch_sizes:
        hits = batch // 2
        queries = [_fingerprint(i) for i in range(hits)] + \
            [_fingerprint(n_entries + i) for i in range(batch - hits)]

        # -- CPU: dispatch the batch across the thread pool --
        env = Environment()
        cpu = SimCpu(env)

        def lookup_task(fingerprint):
            depth = cpu_table.bin_depth(fingerprint)
            yield cpu.charge(costs.bin_tree_probe(depth))
            cpu_table.lookup(fingerprint)

        def cpu_batch():
            yield cpu.charge(costs.dispatch_per_batch)
            tasks = [env.process(lookup_task(q)) for q in queries]
            for task in tasks:
                yield task

        done = env.process(cpu_batch())
        env.run(until=done)
        cpu_seconds = env.now

        # -- GPU: one kernel launch --
        env = Environment()
        gpu = GpuDevice(env)
        kernel = gpu_table.make_kernel(queries)

        def gpu_batch():
            yield from gpu.launch(kernel)

        done = env.process(gpu_batch())
        env.run(until=done)
        seconds[batch] = {"cpu": cpu_seconds, "gpu": env.now}
    return seconds


# ---------------------------------------------------------------------------
# E2 — §4(1): parallel deduplication throughput.
# ---------------------------------------------------------------------------

def e2_dedup(n_chunks: int = 65536) -> dict[IntegrationMode, PipelineReport]:
    """Dedup-only pipeline: CPU-only versus GPU-assisted."""
    return _sweep(n_chunks, "mode", (_CPU, _DEDUP), enable_compression=False)


# ---------------------------------------------------------------------------
# E3 — §4(2): parallel compression throughput vs compression ratio.
# ---------------------------------------------------------------------------

def e3_compression(ratios: Sequence[float] = (1.2, 1.5, 2.0, 3.0, 4.0),
                   n_chunks: int = 16384
                   ) -> dict[float, dict[IntegrationMode, PipelineReport]]:
    """Compression-only pipeline across the compressibility dial, on the
    CPU and on the GPU."""
    return {ratio: _sweep(n_chunks, "mode", (_CPU, _COMP),
                          enable_dedup=False, comp_ratio=ratio)
            for ratio in ratios}


# ---------------------------------------------------------------------------
# E4 — Fig. 2 / §4(3): throughput of the four integration modes.
# ---------------------------------------------------------------------------

def e4_integration(n_chunks: int = 65536
                   ) -> dict[IntegrationMode, PipelineReport]:
    """The integrated pipeline in every mode (regenerates Fig. 2)."""
    return _sweep(n_chunks, "mode", IntegrationMode.all_modes())


# ---------------------------------------------------------------------------
# E5 — Fig. 1: the integrated workflow, every decision edge exercised.
# ---------------------------------------------------------------------------

def e5_workflow(n_chunks: int = 32768) -> PipelineReport:
    """One GPU_BOTH run; its counters are Fig. 1's edges."""
    return run_mode(_BOTH, n_chunks)


# ---------------------------------------------------------------------------
# A1 — §3.1(1): lock-free bin scaling across thread counts.
# ---------------------------------------------------------------------------

def a1_thread_scaling(thread_counts: Sequence[int] = (1, 2, 4, 8),
                      n_chunks: int = 16384) -> dict[int, PipelineReport]:
    """CPU-only dedup throughput as the core count grows.

    Bins mean no locks, so throughput should scale near-linearly until
    SMT sharing flattens it — which is the design argument of §3.1(1).
    """
    def cpu_with(threads: int) -> CpuSpec:
        # Up to 4 threads we add physical cores (the i7-2600K has 4);
        # beyond that the extra threads are SMT siblings and run derated.
        cores = min(threads, I7_2600K.cores)
        return CpuSpec(name=f"{threads}T", cores=cores, threads=threads,
                       freq_hz=I7_2600K.freq_hz,
                       smt_derate=(I7_2600K.smt_derate
                                   if threads > cores else 1.0))

    return _sweep(n_chunks, "cpu_spec",
                  {threads: cpu_with(threads) for threads in thread_counts},
                  mode=_CPU, gpu_spec=None, enable_compression=False)


def a1_bin_balance(prefix_bytes_options: Sequence[int] = (1, 2),
                   n_entries: int = 100_000) -> dict[int, float]:
    """Occupancy balance of the bin partition (1.0 = perfectly even)."""
    balance = {}
    for prefix_bytes in prefix_bytes_options:
        table = BinTable(prefix_bytes=prefix_bytes)
        for i in range(n_entries):
            table.insert(_fingerprint(i), True)
        balance[prefix_bytes] = table.balance()
    return balance


# ---------------------------------------------------------------------------
# A2 — §3.1(1): prefix truncation memory arithmetic, and the index the
# code builds.
# ---------------------------------------------------------------------------

def _built_bytes_per_chunk(prefix_bytes: int, n_chunks: int) -> float:
    """Traced bytes a drained engine keeps per stored unique chunk.

    ``n_chunks`` unique descriptor chunks are indexed, stored and
    drained into the bin trees; their fingerprints are made inside the
    traced window, as a stream would hand them over.  What is still
    allocated once the chunks are gone is the index (bin trees) plus
    the metadata store (chunk table and logical map).
    """
    engine = DedupEngine(prefix_bytes=prefix_bytes)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n_chunks):
            chunk = Chunk(offset=i * 4096, size=4096,
                          fingerprint=_fingerprint(i), comp_ratio=2.0)
            engine.cpu_index(chunk)
            chunk.compressed_size = 2048
            engine.commit_unique(chunk)
        engine.drain()
        del chunk
        gc.collect()
        built = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return built / n_chunks


def a2_prefix_truncation(n_chunks: int = 20000) -> dict[str, dict]:
    """The paper's sizing: 4 TB / 8 KB chunks, 32 B entries => 16 GB,
    minus 1 GB per two prefix bytes dropped — and what the code builds.

    ``{"paper": {prefix bytes: {"entries", "memory_bytes",
    "saved_vs_full"}}, "built": {prefix bytes: bytes per stored
    chunk}}``: a paper entry is the 20-byte SHA-1 less the prefix, plus
    12 bytes of metadata; a built row measures the pipeline's (1) and
    the volume's (2) prefix over ``n_chunks`` unique chunks.
    """
    entries = 4 * 1024**4 // (8 * 1024)
    return {
        "paper": {prefix_bytes: {
            "entries": entries,
            "memory_bytes": entries * (20 - prefix_bytes + 12),
            "saved_vs_full": entries * prefix_bytes}
            for prefix_bytes in (0, 1, 2, 4)},
        "built": {prefix_bytes: _built_bytes_per_chunk(prefix_bytes,
                                                       n_chunks)
                  for prefix_bytes in (PREFIX_BYTES, VOLUME_PREFIX_BYTES)},
    }


# ---------------------------------------------------------------------------
# A3 — §3.3: bin-buffer size vs locality hits and flush sequentiality.
# ---------------------------------------------------------------------------

def a3_bin_buffer(totals: Sequence[int] = (512, 2048, 8192, 32768),
                  n_chunks: int = 16384) -> dict[int, PipelineReport]:
    """Sweep the bin-buffer budget in a CPU-only dedup run."""
    return _sweep(n_chunks, "bin_buffer_total", totals, mode=_CPU,
                  enable_compression=False)


# ---------------------------------------------------------------------------
# A4 — §3.3: GPU-bin replacement policy comparison.
# ---------------------------------------------------------------------------

def a4_replacement(n_uniques: int = 4096, n_lookups: int = 30000,
                   bin_capacity: int = 8) -> dict[str, GpuBinIndex]:
    """Drive each policy with a Zipf-skewed lookup stream over bins far
    smaller than the working set, so eviction choices matter."""
    policies = {"random": RandomReplacement(seed=5),
                "fifo": FifoReplacement(),
                "lru": LruReplacement()}
    indexes = {}
    for name, policy in policies.items():
        index = GpuBinIndex(prefix_bytes=1, bin_capacity=bin_capacity,
                            policy=policy)
        pattern = ZipfPattern(n_uniques, skew=1.1, seed=5)
        for _ in range(n_lookups):
            fingerprint = _fingerprint(pattern.next_slot())
            hit = index.lookup_host([fingerprint])[0]
            if not hit:
                index.insert(fingerprint)
        indexes[name] = index
    return indexes


# ---------------------------------------------------------------------------
# A5 — §4(3): dummy-I/O calibration across platforms.
# ---------------------------------------------------------------------------

#: A platform whose GPU is too weak to beat 8 CPU threads: few lanes,
#: slow clock, painful launch overheads (an entry-level 2012 dGPU).
WEAK_GPU = GpuSpec(
    name="weak dGPU", compute_units=2, lanes_per_cu=32, freq_hz=500e6,
    mem_bandwidth_bps=20e9, mem_capacity_bytes=512 * 1024**2,
    launch_overhead_s=250e-6, sync_overhead_s=250e-6, occupancy=0.2)

#: A platform with a much beefier CPU than the testbed.
BIG_CPU = CpuSpec(name="32-thread server", cores=16, threads=32,
                  freq_hz=2.8e9)


def a5_calibration(dummy_chunks: int = 8192
                   ) -> dict[str, CalibrationResult]:
    """Calibrate the integration mode on three platforms."""
    return {
        "testbed": calibrate_mode(dummy_chunks=dummy_chunks),
        "weak_gpu": calibrate_mode(gpu_spec=WEAK_GPU,
                                   dummy_chunks=dummy_chunks),
        "big_cpu": calibrate_mode(cpu_spec=BIG_CPU,
                                  dummy_chunks=dummy_chunks),
    }


# ---------------------------------------------------------------------------
# A6 — §1 motivation: inline vs background reduction endurance.
# ---------------------------------------------------------------------------

def a6_inline_vs_background(n_chunks: int = 16384) -> dict[str, int]:
    """Inline reduces then writes once; background writes everything raw
    and later rewrites the reduced copy ("this generates more write I/O
    than systems without the data reduction operations").

    ``{"logical", "inline", "background"}``: the stream's bytes, and the
    NAND bytes each strategy programs.
    """
    inline = run_mode(_CPU, n_chunks)
    # Background: land the full stream raw first, then rewrite the
    # reduced form the offline pass produces.
    ssd = SsdModel(Environment())
    for _ in range(n_chunks):
        ssd.write(4096, sequential=True)
    reduced = int(inline.bytes_in / inline.reduction_ratio)
    ssd.write(max(4096, reduced), sequential=True)
    ssd.env.run()
    return {"logical": inline.bytes_in,
            "inline": inline.nand_bytes_written,
            "background": ssd.nand_bytes_written}


# ---------------------------------------------------------------------------
# A8 — §5 related-work baselines: locked global index (P-Dedupe-class)
# and GPU-only indexing (GHOST-class).
# ---------------------------------------------------------------------------

def a8_index_locking(n_chunks: int = 16384) -> dict[str, PipelineReport]:
    """The paper's lock-free bins against a conventional locked table,
    dedup-only at full load."""
    return _sweep(n_chunks, "index_locking", ("bins", "global"), mode=_CPU,
                  enable_compression=False)


def a8_offload_policy(n_chunks: int = 8192) -> dict[str, PipelineReport]:
    """The paper's saturation rule vs GHOST-style always-offload, paced
    at 50 K IOPS.

    Below CPU saturation the paper's rule keeps indexing local and
    cheap; forcing every lookup through GPU batches pays a batch-fill +
    launch round trip per chunk — the critique in §5 of GPU-only
    indexing designs.
    """
    return _sweep(n_chunks, "gpu_index_policy", ("saturation", "always"),
                  mode=_DEDUP, enable_compression=False,
                  arrival_rate_iops=50e3)


# ---------------------------------------------------------------------------
# A9 — §3.1(1): RAM-only index across a restart ("not a big deal").
# ---------------------------------------------------------------------------

def _dedup_stream(n_chunks: int, seed: int, restart_at: Optional[int] = None,
                  compress: bool = True) -> DedupEngine:
    """Feed a descriptor stream through a functional dedup engine.

    The engine restarts before chunk ``restart_at``; without
    ``compress`` every unique chunk is stored at its full size.
    """
    engine = DedupEngine(prefix_bytes=1, bin_buffer_total=2048)
    stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=seed)
    for i, chunk in enumerate(stream.chunks(n_chunks)):
        if i == restart_at:
            engine.restart()
        outcome = engine.cpu_index(chunk)
        if outcome.duplicate:
            engine.commit_duplicate(chunk, outcome.physical_id)
            continue
        if compress:
            chunk.compressed_size = max(1, int(
                chunk.size / chunk.effective_ratio()))
        engine.commit_unique(chunk)
    engine.drain()
    return engine


def a9_restart(n_chunks: int = 20000) -> dict[str, DedupEngine]:
    """Measure the dedup the RAM-only index loses across one restart.

    The same stream runs twice: uninterrupted, and with a restart at the
    midpoint.  The gap is the paper's "cannot find some duplicate data"
    — bounded, because only pre-restart content is affected and the
    index rebuilds as new (post-restart) content flows.  Every unique
    the restarted run stores beyond the uninterrupted run's is a
    duplicate the lost index could not see.
    """
    return {"no restart": _dedup_stream(n_chunks, seed=17),
            "with restart": _dedup_stream(n_chunks, seed=17,
                                          restart_at=n_chunks // 2)}


# ---------------------------------------------------------------------------
# A11 — §3.1(2): simple vs local-memory-tiled lookup kernel.
# ---------------------------------------------------------------------------

def a11_kernel_variants(batch_sizes: Sequence[int] = (64, 256, 1024),
                        n_entries: int = 65536
                        ) -> dict[int, dict[str, float]]:
    """Compare the per-thread global scan against the workgroup-tiled
    local-memory kernel across batch sizes: launch seconds and global
    bytes read, ``{batch: {"simple_s", "tiled_s", "simple_bytes",
    "tiled_bytes"}}``.

    With a 1-byte prefix, batches of a few hundred queries hit the same
    256 bins repeatedly; the tiled kernel stages each bin once instead
    of streaming it per query, which is the §3.1(2) local-memory
    argument in numbers.
    """
    index = GpuBinIndex(prefix_bytes=1, bin_capacity=8192)
    for i in range(n_entries):
        index.insert(_fingerprint(i))
    rng = random.Random(9)
    gpu = GpuDevice(Environment())

    variants = {}
    for batch in batch_sizes:
        queries = [_fingerprint(rng.randrange(2 * n_entries))
                   for _ in range(batch)]
        simple = index.make_kernel(queries)
        tiled = TiledBinLookupKernel(index.make_batch(queries),
                                     index.table_view())
        variants[batch] = {"simple_s": gpu.launch_time(simple),
                           "tiled_s": gpu.launch_time(tiled),
                           "simple_bytes": simple.cost().bytes_read,
                           "tiled_bytes": tiled.cost().bytes_read}
    return variants


# ---------------------------------------------------------------------------
# A15 — delta compression for near-duplicates (extension; DEC-class).
# ---------------------------------------------------------------------------

def a15_delta_reduction(n_chunks: int = 250) -> dict[str, dict[str, Any]]:
    """Near-duplicate-heavy stream through three reduction stacks:
    ``{stack: {"physical_bytes", "reduction", "deltas"}}``.

    Deduplication removes exact duplicates only; the stream's *near*
    duplicates (point-edited copies, the VM-image/record-update pattern)
    defeat it.  Resemblance sketches + delta encoding (DEC-class, the
    literature around the paper) capture them: the delta of a 6-edit
    4 KiB chunk is tens of bytes.
    """
    # 25% exact duplicates, 35% near duplicates (6 point edits each).
    rng = random.Random(41)
    content = BlockContentGenerator(2.0, seed=41)
    bases: list[bytes] = []
    stream: list[bytes] = []
    for i in range(n_chunks):
        draw = rng.random()
        if bases and draw < 0.25:
            stream.append(bases[rng.randrange(len(bases))])
        elif bases and draw < 0.6:
            base = bytearray(bases[rng.randrange(len(bases))])
            for _ in range(6):
                base[rng.randrange(len(base))] = rng.randrange(256)
            stream.append(bytes(base))
        else:
            block = content.make_block(4096, salt=i)
            bases.append(block)
            stream.append(block)

    # Each distinct chunk (in first-occurrence order) and the bytes LZ
    # stores it in; exact dedup keeps only these.
    distinct = list(dict.fromkeys(stream))
    containers, _ = compress_payloads(distinct, 1)
    lz_bytes = {chunk: min(len(blob), len(chunk))
                for chunk, blob in zip(distinct, containers)}

    # Exact dedup + similarity delta + LZ.
    delta_codec = DeltaCodec()
    similarity = SimilarityIndex()
    stored: list[bytes] = []
    dedup_delta_lz = deltas = 0
    for chunk, lz_size in lz_bytes.items():
        chunk_sketch = sketch(chunk)
        reference_id = similarity.find_similar(chunk_sketch)
        if reference_id is not None:
            delta = delta_codec.encode(stored[reference_id], chunk)
            if len(delta) < lz_size:
                dedup_delta_lz += len(delta)
                deltas += 1
                continue
        similarity.insert(len(stored), chunk_sketch)
        stored.append(chunk)
        dedup_delta_lz += lz_size

    logical = n_chunks * 4096
    stacks = {"lz_only": (sum(lz_bytes[chunk] for chunk in stream), 0),
              "dedup+lz": (sum(lz_bytes.values()), 0),
              "dedup+delta+lz": (dedup_delta_lz, deltas)}
    return {stack: {"physical_bytes": physical,
                    "reduction": logical / physical, "deltas": count}
            for stack, (physical, count) in stacks.items()}


# ---------------------------------------------------------------------------
# A14 — FTL-level compound endurance (extension of the §1 motivation).
# ---------------------------------------------------------------------------

def a14_ftl_endurance(blocks: int = 64, pages_per_block: int = 64,
                      churn_rounds: int = 8) -> dict[str, Ftl]:
    """The same logical overwrite churn on a raw vs a reduced device.

    Inline reduction helps flash endurance *twice*: it shrinks the host
    write stream by the reduction ratio, AND the emptier device gives
    the garbage collector easy victims, so each remaining write carries
    a lower write-amplification factor.  This experiment runs identical
    logical churn (working set ~85% of raw capacity) against a
    page-mapped FTL with and without a 4x (dedup 2.0 x comp 2.0)
    reduction in front of it.
    """
    logical_pages = int(blocks * pages_per_block * 0.85)
    ftls = {}
    for strategy, factor in (("raw", 1.0), ("reduced", 4.0)):
        ftl = Ftl(FtlSpec(blocks=blocks, pages_per_block=pages_per_block))
        physical_pages = max(1, int(logical_pages / factor))
        rng = random.Random(31)
        # Initial fill.
        ftl.write_run(list(range(physical_pages)))
        # Churn: every logical overwrite lands as 1/factor physical
        # writes on average (duplicates and compression absorb the rest).
        # The target list is drawn up front (the FTL never touches the
        # RNG, so the draw order is unchanged) and written as one run —
        # state-identical to per-page write() calls.
        churn_writes = int(logical_pages * churn_rounds / factor)
        ftl.write_run([rng.randrange(physical_pages)
                       for _ in range(churn_writes)])
        ftl.check_invariants()
        ftls[strategy] = ftl
    return ftls


# ---------------------------------------------------------------------------
# A13 — compression batch size on the shared device queue (extension).
# ---------------------------------------------------------------------------

def a13_batch_sweep(batch_sizes: Sequence[int] = (32, 64, 128, 256, 512),
                    n_chunks: int = 16384
                    ) -> dict[IntegrationMode, dict[int, PipelineReport]]:
    """Sweep the compression batch size in GPU_COMP and GPU_BOTH.

    The batch size sets the device-queue occupancy per launch, which is
    the whole Fig. 2 mechanism: small batches drown in launch overhead,
    large batches block the queue for milliseconds and starve the
    latency-critical index lookups GPU_BOTH interleaves.  The paper's
    operating regime (2012-era launch overheads pushing batches large)
    makes GPU_COMP win; the sweep also shows the *extension* result —
    at the sweet spot, a tuned GPU_BOTH recovers and can edge past
    GPU_COMP, because contention shrinks faster than the offload gain.
    """
    return {mode: _sweep(n_chunks, "gpu_comp_batch", batch_sizes, mode=mode)
            for mode in (_COMP, _BOTH)}


# ---------------------------------------------------------------------------
# A10 — read-path cost of reduction (extension; the paper's intro
# motivates primary storage, which serves reads too).
# ---------------------------------------------------------------------------

def a10_read_path(n_chunks: int = 12000,
                  n_reads: int = 20000) -> dict[str, ReadReport]:
    """Random chunk reads from a reduced volume vs a raw volume.

    Populates metadata through the functional dedup engine, then serves
    a uniform random read workload through the timed read pipeline —
    once against the reduced store (compressed extents + CPU decode) and
    once against the same stream stored uncompressed.
    """
    rng = random.Random(23)
    offsets = [rng.randrange(n_chunks) * 4096 for _ in range(n_reads)]
    reports = {}
    for strategy in ("reduced", "raw"):
        engine = _dedup_stream(n_chunks, seed=23,
                               compress=strategy == "reduced")
        reports[strategy] = ReadPipeline(Environment(),
                                         engine.metadata).run(offsets)
    return reports


# ---------------------------------------------------------------------------
# A7 — §3.2(2): GPU segment count vs compression-ratio loss.
# ---------------------------------------------------------------------------

def a7_segment_sweep(segment_counts: Sequence[int] = (1, 2, 4, 8, 16),
                     n_blocks: int = 6) -> dict[int, dict[str, float]]:
    """Real payload compression at each segment count:
    ``{segments: {"ratio", "ratio_loss", "critical_path_s"}}``.

    More segments = shorter per-thread critical path (latency win) but a
    slightly worse ratio (matches cannot cross into a segment's own
    future) — the §3.2(2) design trade the paper accepts.
    """
    generator = BlockContentGenerator(2.0, seed=3)
    generator.calibrate()
    blocks = [generator.make_block(4096, salt=s) for s in range(n_blocks)]
    device = GpuDevice(Environment())

    # One segment is the serial greedy parse: the loss's reference.
    total = sum(len(block) for block in blocks)
    ratios = {segments: total / sum(
        map(len, compress_payloads(blocks, segments)[0]))
        for segments in dict.fromkeys((1, *segment_counts))}
    points = {}
    for segments in segment_counts:
        cost = SegmentLzKernel(blocks, segments_per_chunk=segments).cost()
        points[segments] = {
            "ratio": ratios[segments],
            "ratio_loss": 1.0 - ratios[segments] / ratios[1],
            "critical_path_s": cost.critical_path_cycles
            / device.spec.freq_hz}
    return points


# ---------------------------------------------------------------------------
# A16/A17 — tenancy ablations: inline hit rate vs tenant-mix composition
# and vs cache capacity.
# ---------------------------------------------------------------------------

#: The committed mixed-locality scenario: a hot tenant whose working
#: set fits the inline cache against a cold scan that floods it.  A17
#: and the tier-1 admission floors (tests/test_goldens.py) both read this
#: exact mix; A16 sweeps the hot tenant's weight around it.
SCENARIO_MIX = TenantMix(tenants=(
    TenantSpec(name="hot", seed=11, dedup_ratio=3.0, locality=0.95,
               working_set=64),
    TenantSpec(name="cold", seed=22, dedup_ratio=1.05, locality=0.0,
               working_set=1 << 16),
), seed=7)


def _both_policies(mix: TenantMix, n_chunks: int, cache_entries: int
                   ) -> dict[str, TenancyRunReport]:
    """``mix`` on CPU_ONLY under the shared LRU and prioritized
    admission: ``{policy: report}``."""
    return {policy: run_tenant_mix(mix, _CPU, n_chunks,
                                   base_config=PipelineConfig(
                                       tenancy_policy=policy,
                                       tenancy_cache_entries=cache_entries))
            for policy in ("shared_lru", "prioritized")}


def a16_tenant_mix(n_chunks: int = 4096
                   ) -> dict[float, dict[str, TenancyRunReport]]:
    """Sweep the hot tenant's traffic share (cache 96 entries); compare
    admission policies.

    The HPDedup claim under composition drift: however much of the
    interleaved stream the high-locality tenant contributes, a
    locality-prioritized cache beats a shared LRU on aggregate inline
    hit rate — and the edge is largest when the cold scan dominates
    (small hot weight), because that is when LRU recency evicts
    exactly the entries worth keeping.
    """
    hot, cold = SCENARIO_MIX.tenants
    mixes = {weight: replace(SCENARIO_MIX,
                             tenants=(replace(hot, weight=weight), cold))
             for weight in (0.25, 1.0, 4.0)}
    return {weight: _both_policies(mix, n_chunks, 96)
            for weight, mix in mixes.items()}


def a17_cache_contention(n_chunks: int = 4096
                         ) -> dict[int, dict[str, TenancyRunReport]]:
    """Shrink the inline cache under the committed mixed scenario.

    The contention story: a shared LRU degrades smoothly toward zero
    as the cold scan churns the cache, while prioritized residency
    holds the hot tenant near its working-set ceiling until capacity
    drops below that working set.  Out-of-line compaction keeps the
    *effective* dedup ratio at the oracle throughout — capacity only
    moves the inline/out-of-line split.
    """
    return {capacity: _both_policies(SCENARIO_MIX, n_chunks, capacity)
            for capacity in (48, 64, 96, 128, 256)}


# ---------------------------------------------------------------------------
# The experiment table.  One row per id; the row names the function that
# runs it (at its defaults) and the claims it must reproduce.
# ---------------------------------------------------------------------------

#: Chains a tuple-valued check may demand of its values, left to right.
ORDERS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
          ">=": operator.ge}

INF = math.inf
MIB = 1024**2
GIB = 1024**3


def _items(result) -> Iterable:
    """A keyed result's ``(key, value)`` pairs; any other result as is."""
    return result.items() if isinstance(result, Mapping) else result


@dataclass(frozen=True)
class Experiment:
    """One row of :data:`EXPERIMENTS`.

    ``run`` is called without arguments; an experiment function's
    defaults are the size its row runs at.  ``rows`` turns the result
    into table rows (by default a keyed result's items) and ``columns``
    are (header, getter) pairs over a row.  Each check is (text, measure, expect): ``measure(result)``
    must lie in a closed ``(lo, hi)`` band, be a member of a frozenset,
    or — for a tuple of values — satisfy one of :data:`ORDERS` between
    every neighbouring pair.
    """

    paper: str
    title: str
    run: Callable[[], Any]
    columns: tuple[tuple[str, Callable[[Any], Any]], ...]
    checks: tuple[tuple[str, Callable[[Any], Any], Any], ...]
    rows: Callable[[Any], Iterable] = _items

    def report(self) -> tuple[str, bool]:
        """Run the row: its table, one line per check, and whether every
        check held."""
        result = self.run()
        table = Table(f"{self.title} [{self.paper}]",
                      [header for header, _get in self.columns])
        for row in self.rows(result):
            table.add_row(*(get(row) for _header, get in self.columns))
        # A last header shorter than its cells is padded; strip that, so
        # a generated region carries no trailing blanks.
        lines = [line.rstrip() for line in table.render().splitlines()]
        lines.append("")
        passed = True
        for text, measure, expect in self.checks:
            ok, shown = _judge(measure(result), expect)
            passed = passed and ok
            lines.append(f"{'ok  ' if ok else 'FAIL'} {text}: {shown}")
        return "\n".join(lines), passed


def _show(value) -> str:
    if not isinstance(value, float):
        return str(value)
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def _judge(value, expect) -> tuple[bool, str]:
    """Whether ``value`` meets ``expect``, and the line that says so."""
    if isinstance(expect, str):
        holds = ORDERS[expect]
        return (all(holds(a, b) for a, b in zip(value, value[1:])),
                f" {expect} ".join(map(_show, value)))
    if isinstance(expect, frozenset):
        members = ", ".join(sorted(map(_show, expect)))
        return value in expect, f"{_show(value)} in {{{members}}}"
    lo, hi = expect
    if lo == hi:
        bound = f"== {_show(lo)}"
    elif hi == INF:
        bound = f">= {_show(lo)}"
    elif lo == -INF:
        bound = f"<= {_show(hi)}"
    else:
        bound = f"in [{_show(lo)}, {_show(hi)}]"
    return lo <= value <= hi, f"{_show(value)} {bound}"


def _k(iops: float) -> float:
    return iops / 1e3


def _terminal(counters) -> int:
    """Chunks that left through one of Fig. 1's terminal edges."""
    return (counters["gpu_hits"] + counters["buffer_hits"]
            + counters["tree_hits"] + counters.get("pending_hits", 0)
            + counters.get("race_duplicates", 0) + counters["uniques"])


_FIG1_EDGES = (
    ("GPU index hit -> duplicate", "gpu_hits"),
    ("bin-buffer hit -> duplicate", "buffer_hits"),
    ("bin-tree hit -> duplicate", "tree_hits"),
    ("in-flight twin -> duplicate", "pending_hits"),
    ("unique -> compress -> buffer", "uniques"),
    ("bin-buffer flush -> storage+GPU", "flushes"),
)


def _cpu_advantage(seconds) -> float:
    """How many times faster E1's CPU batch completes."""
    return seconds["gpu"] / seconds["cpu"]


def _buffer_share(report) -> float:
    """Share of an A3 run's duplicates the bin buffer absorbed."""
    dups = report.duplicates_found
    return report.counters["buffer_hits"] / dups if dups else 0.0


def _mean_flush(report) -> float:
    """Mean chunks per bin flush of an A3 run."""
    return report.counters["uniques"] / (report.counters["flushes"] or 1)


def _sweet_spot(series) -> tuple[float, float]:
    """(better end of the sweep, peak) K IOPS for one A13 mode."""
    values = [_k(report.iops) for report in series.values()]
    return max(values[0], values[-1]), max(values)


def _gain(reports) -> float:
    """Aggregate-hit-rate multiple of prioritized over shared (A16/A17)."""
    shared = reports["shared_lru"].inline_hit_rate
    if shared == 0:
        return float("inf")
    return reports["prioritized"].inline_hit_rate / shared


EXPERIMENTS: dict[str, Experiment] = {
    "e1": Experiment(
        "§3.1(3)", "E1 - indexing batch execution time (CPU vs GPU)",
        run=e1_indexing,
        columns=(("batch", itemgetter(0)),
                 ("cpu (us)", lambda item: item[1]["cpu"] * 1e6),
                 ("gpu (us)", lambda item: item[1]["gpu"] * 1e6),
                 ("cpu advantage",
                  lambda item: f"{_cpu_advantage(item[1]):.2f}x")),
        checks=(
            ("GPU time is flat (launch floor): max / min over batches",
             lambda r: max(s["gpu"] for s in r.values())
             / min(s["gpu"] for s in r.values()), (-INF, 1.25)),
            ("CPU advantage at batch 32 (paper 4.16-5.45x)",
             lambda r: _cpu_advantage(r[32]), (4.16, INF)),
            ("batch sizes inside the paper's 4.16-5.45x band",
             lambda r: sum(4.16 <= _cpu_advantage(s) <= 5.45
                           for s in r.values()), (1, INF)),
            ("CPU advantage decays with batch size",
             lambda r: tuple(map(_cpu_advantage, r.values())), ">="),
            ("CPU advantage at batch 256",
             lambda r: _cpu_advantage(r[256]), (-INF, 2.0)),
        )),
    "e2": Experiment(
        "§4(1)", "E2 - dedup-only throughput (dedup ratio 2.0)",
        run=e2_dedup,
        rows=lambda r: (
            ("SSD (yardstick)", SSD_IOPS, None),
            ("CPU-only dedup", r[_CPU].iops, r[_CPU].iops),
            ("GPU-assisted dedup", r[_DEDUP].iops, r[_CPU].iops)),
        columns=(("configuration", itemgetter(0)),
                 ("K IOPS", lambda row: _k(row[1])),
                 ("vs SSD", lambda row: f"{row[1] / SSD_IOPS:.2f}x"),
                 ("vs CPU-only", lambda row: f"{row[1] / row[2]:.3f}x"
                  if row[2] else "-")),
        checks=(
            ("GPU-assisted gain over CPU-only (paper +15.0%)",
             lambda r: r[_DEDUP].speedup_over(r[_CPU]) - 1, (0.10, 0.20)),
            ("GPU-assisted throughput / SSD (paper ~3x)",
             lambda r: r[_DEDUP].iops / SSD_IOPS, (2.5, 3.5)),
            ("duplicates the GPU index resolved",
             lambda r: r[_DEDUP].counters["gpu_hits"], (1, INF)),
            ("uniques, CPU-only == GPU-assisted (offload moves timing only)",
             lambda r: (r[_CPU].counters["uniques"],
                        r[_DEDUP].counters["uniques"]), "=="),
        )),
    "e3": Experiment(
        "§4(2)", "E3 - compression-only throughput vs compression ratio",
        run=e3_compression,
        columns=(("comp ratio", itemgetter(0)),
                 ("CPU K IOPS", lambda item: _k(item[1][_CPU].iops)),
                 ("GPU K IOPS", lambda item: _k(item[1][_COMP].iops)),
                 ("SSD K IOPS", lambda item: _k(SSD_IOPS)),
                 ("GPU/CPU", lambda item:
                  f"{item[1][_COMP].speedup_over(item[1][_CPU]):.2f}x")),
        checks=(
            ("CPU K IOPS at ratio 1.2 (paper ~50 K)",
             lambda r: _k(r[1.2][_CPU].iops), (40, 60)),
            ("CPU at ratio 1.2 < SSD line, K IOPS",
             lambda r: (_k(r[1.2][_CPU].iops), _k(SSD_IOPS)), "<"),
            ("GPU K IOPS at ratio 1.2 (paper ~100 K)",
             lambda r: _k(r[1.2][_COMP].iops), (90, 125)),
            ("SSD line < slowest GPU point, K IOPS",
             lambda r: (_k(SSD_IOPS),
                        min(_k(pair[_COMP].iops) for pair in r.values())),
             "<"),
            ("GPU/CPU at ratio 2.0 (paper 1.883x)",
             lambda r: r[2.0][_COMP].speedup_over(r[2.0][_CPU]), (1.6, 2.2)),
            ("CPU K IOPS rises with compressibility",
             lambda r: tuple(_k(pair[_CPU].iops) for pair in r.values()),
             "<="),
        )),
    "e4": Experiment(
        "Fig. 2, §4(3)", "E4 - integration modes (dedup 2.0 x comp 2.0)",
        run=e4_integration,
        rows=lambda r: [(mode, r[mode], r[_CPU])
                        for mode in IntegrationMode.all_modes()],
        columns=(("mode", lambda row: row[0].value),
                 ("K IOPS", lambda row: _k(row[1].iops)),
                 ("vs CPU-only",
                  lambda row: f"{row[1].speedup_over(row[2]):.3f}x"),
                 ("cpu util", lambda row: row[1].cpu_utilization),
                 ("gpu util", lambda row: row[1].gpu_utilization),
                 ("gpu queue wait (us)",
                  lambda row: row[1].gpu_mean_queue_wait_s * 1e6)),
        checks=(
            ("K IOPS, CPU_ONLY < GPU_DEDUP < GPU_BOTH < GPU_COMP",
             lambda r: tuple(_k(r[mode].iops)
                             for mode in (_CPU, _DEDUP, _BOTH, _COMP)),
             "<"),
            ("GPU_COMP gain over CPU_ONLY (paper +89.7%)",
             lambda r: r[_COMP].speedup_over(r[_CPU]) - 1, (0.70, 1.10)),
            ("mean GPU queue wait (us), GPU_COMP < GPU_BOTH",
             lambda r: (r[_COMP].gpu_mean_queue_wait_s * 1e6,
                        r[_BOTH].gpu_mean_queue_wait_s * 1e6), "<"),
            ("uniques, equal in every mode",
             lambda r: tuple(r[mode].counters["uniques"]
                             for mode in IntegrationMode.all_modes()), "=="),
        )),
    "e5": Experiment(
        "Fig. 1", "E5 - workflow decision-edge traffic (GPU_BOTH)",
        run=e5_workflow,
        rows=lambda report: [(label, report.counters.get(name, 0),
                              report.chunks) for label, name in _FIG1_EDGES],
        columns=(("edge", itemgetter(0)), ("chunks", itemgetter(1)),
                 ("fraction", lambda row: row[1] / row[2])),
        checks=(
            ("fewest chunks on the GPU-hit, buffer-hit, unique and flush "
             "edges", lambda report: min(report.counters[name] for name in (
                 "gpu_hits", "buffer_hits", "uniques", "flushes")),
             (1, INF)),
            ("terminal-edge chunks == chunks in",
             lambda report: (_terminal(report.counters), report.chunks),
             "=="),
            ("bin flushes <= destage batches",
             lambda report: (report.counters["flushes"],
                             report.destage_batches), "<="),
            ("NAND bytes programmed",
             lambda report: report.nand_bytes_written, (1, INF)),
            ("dedup ratio out of the metadata ledger (dial 2.0)",
             lambda report: report.dedup_ratio, (1.8, 2.2)),
        )),
    "a1": Experiment(
        "§3.1(1)", "A1 - dedup throughput vs CPU threads (lock-free bins)",
        run=a1_thread_scaling,
        rows=lambda r: [(threads, report, r[1])
                        for threads, report in r.items()],
        columns=(("threads", itemgetter(0)),
                 ("K IOPS", lambda row: _k(row[1].iops)),
                 ("speedup vs 1T",
                  lambda row: f"{row[1].iops / row[2].iops:.2f}x")),
        checks=(
            ("4 threads / 1 thread (physical cores)",
             lambda r: r[4].iops / r[1].iops, (3.0, INF)),
            ("8 threads / 4 threads (SMT siblings)",
             lambda r: r[8].iops / r[4].iops, (1.1, INF)),
            ("K IOPS rises with threads",
             lambda r: tuple(_k(report.iops) for report in r.values()),
             "<="),
        )),
    "a1-balance": Experiment(
        "§3.1(1)", "A1 - bin occupancy balance (mean/max, 100 K entries)",
        run=a1_bin_balance,
        columns=(("prefix bytes", itemgetter(0)),
                 ("bins", lambda item: 256 ** item[0]),
                 ("balance", itemgetter(1))),
        checks=(
            ("balance of 256 bins (1-byte prefix)",
             itemgetter(1), (0.7, INF)),
        )),
    "a2": Experiment(
        "§3.1(1)", "A2 - index memory at 4 TB / 8 KB chunks (32 B entries)",
        run=a2_prefix_truncation,
        rows=lambda r: [
            *(("paper", prefix_bytes, row["memory_bytes"] / row["entries"],
               row["memory_bytes"], row["saved_vs_full"] / GIB)
              for prefix_bytes, row in r["paper"].items()),
            *(("built", prefix_bytes, per_chunk,
               r["paper"][0]["entries"] * per_chunk, "-")
              for prefix_bytes, per_chunk in r["built"].items())],
        columns=(("index", itemgetter(0)),
                 ("prefix bytes", itemgetter(1)),
                 ("B per entry", itemgetter(2)),
                 ("index (GiB)", lambda row: row[3] / GIB),
                 ("saved vs full (GiB)", itemgetter(4))),
        checks=(
            ("full-fingerprint index, GiB (paper 16 GB)",
             lambda r: r["paper"][0]["memory_bytes"] / GIB, (16, 16)),
            ("saved by a 2-byte prefix, GiB (paper 1 GB)",
             lambda r: r["paper"][2]["saved_vs_full"] / GIB, (1, 1)),
            ("built B per stored chunk / paper's 32 B, prefix 1 (pipeline)",
             lambda r: r["built"][1] / 32, (1, INF)),
            ("built B per stored chunk, prefix 1 (pipeline)",
             lambda r: r["built"][1], (-INF, 160)),
            ("built B per stored chunk / paper's 32 B, prefix 2 (volume)",
             lambda r: r["built"][2] / 32, (1, INF)),
        )),
    "a3": Experiment(
        "§3.3", "A3 - bin-buffer budget sweep (dedup-only)",
        run=a3_bin_buffer,
        columns=(("buffer entries", itemgetter(0)),
                 ("dup hits in buffer", lambda item: _buffer_share(item[1])),
                 ("mean flush size (chunks)",
                  lambda item: _mean_flush(item[1])),
                 ("K IOPS", lambda item: _k(item[1].iops))),
        checks=(
            ("share of duplicates the buffer absorbs grows with it",
             lambda r: tuple(map(_buffer_share, r.values())), "<="),
            ("that share, largest buffer - smallest",
             lambda r: _buffer_share(r[max(r)]) - _buffer_share(r[min(r)]),
             (0.1, INF)),
            ("mean flush size, largest buffer / smallest",
             lambda r: _mean_flush(r[max(r)]) / _mean_flush(r[min(r)]),
             (1.5, INF)),
        )),
    "a4": Experiment(
        "§3.3", "A4 - GPU-bin replacement under Zipf reuse "
                "(bins 8 entries, working set >> capacity)",
        run=a4_replacement,
        columns=(("policy", itemgetter(0)),
                 ("hit rate", lambda item: item[1].hit_rate()),
                 ("evictions", lambda item: item[1].evictions)),
        checks=(
            ("fewest evictions of any policy",
             lambda r: min(index.evictions for index in r.values()),
             (501, INF)),
            ("hit rate, best of random and FIFO <= LRU",
             lambda r: (max(r[name].hit_rate() for name in ("random", "fifo")),
                        r["lru"].hit_rate()), "<="),
            ("hit rate, LRU - random (the paper's default)",
             lambda r: r["lru"].hit_rate() - r["random"].hit_rate(),
             (-INF, 0.05)),
        )),
    "a5": Experiment(
        "§4(3)", "A5 - dummy-I/O calibration across platforms",
        run=a5_calibration,
        columns=(("platform", itemgetter(0)),
                 ("best mode", lambda item: item[1].best_mode.value),
                 ("best K IOPS", lambda item: _k(
                     item[1].iops_by_mode[item[1].best_mode])),
                 ("cpu-only K IOPS",
                  lambda item: _k(item[1].iops_by_mode[_CPU])),
                 ("advantage",
                  lambda item: f"{item[1].speedup_over_cpu_only():.2f}x")),
        checks=(
            ("testbed picks (Fig. 2's answer)",
             lambda r: r["testbed"].best_mode.value,
             frozenset({_COMP.value})),
            ("weak GPU picks a mode that keeps compression on the CPU",
             lambda r: r["weak_gpu"].best_mode.value,
             frozenset({_CPU.value, _DEDUP.value})),
            ("weak GPU: GPU_COMP K IOPS < SSD line",
             lambda r: (_k(r["weak_gpu"].iops_by_mode[_COMP]),
                        _k(SSD_IOPS)), "<"),
            ("big CPU's GPU edge / testbed's GPU edge",
             lambda r: r["big_cpu"].speedup_over_cpu_only()
             / r["testbed"].speedup_over_cpu_only(), (-INF, 0.8)),
            ("platforms whose pick is not the measured argmax",
             lambda r: sum(res.iops_by_mode[res.best_mode]
                           != max(res.iops_by_mode.values())
                           for res in r.values()), (0, 0)),
        )),
    "a6": Experiment(
        "§1", "A6 - NAND bytes programmed per strategy "
              "(dedup 2.0 x comp 2.0)",
        run=a6_inline_vs_background,
        rows=lambda r: (
            ("inline reduction", r["inline"], r["logical"]),
            ("background reduction", r["background"], r["logical"])),
        columns=(("strategy", itemgetter(0)),
                 ("NAND MiB", lambda row: row[1] / MIB),
                 ("write amplification", lambda row: row[1] / row[2])),
        checks=(
            ("MiB, inline NAND < logical < background NAND",
             lambda r: (r["inline"] / MIB, r["logical"] / MIB,
                        r["background"] / MIB), "<"),
            ("background / inline NAND bytes",
             lambda r: r["background"] / r["inline"], (2.5, INF)),
        )),
    "a7": Experiment(
        "§3.2(2)", "A7 - GPU LZ segments per 4 KiB chunk",
        run=a7_segment_sweep,
        columns=(("segments", itemgetter(0)),
                 ("achieved ratio", lambda item: item[1]["ratio"]),
                 ("ratio loss vs serial",
                  lambda item: f"{item[1]['ratio_loss'] * 100:.2f}%"),
                 ("critical path (us)",
                  lambda item: item[1]["critical_path_s"] * 1e6)),
        checks=(
            ("|ratio loss| of one segment (the serial parse)",
             lambda r: abs(r[1]["ratio_loss"]), (0, 1e-9)),
            ("ratio loss at 8 segments",
             lambda r: r[8]["ratio_loss"], (-INF, 0.05)),
            ("critical path, 1 segment / 8 segments",
             lambda r: r[1]["critical_path_s"] / r[8]["critical_path_s"],
             (6, INF)),
            ("ratio loss grows with segments",
             lambda r: tuple(p["ratio_loss"] for p in r.values()), "<="),
            ("critical path (us) shrinks with segments",
             lambda r: tuple(p["critical_path_s"] * 1e6 for p in r.values()),
             ">="),
        )),
    "a8-lock": Experiment(
        "§5", "A8a - lock-free bins vs one global index lock "
              "(dedup-only, 8 threads)",
        run=a8_index_locking,
        columns=(("index discipline", itemgetter(0)),
                 ("K IOPS", lambda item: _k(item[1].iops)),
                 ("mean latency (us)",
                  lambda item: item[1].mean_latency_s * 1e6)),
        checks=(
            ("K IOPS, bins / global lock",
             lambda r: r["bins"].iops / r["global"].iops, (1.8, INF)),
            ("mean latency, global lock / bins",
             lambda r: r["global"].mean_latency_s / r["bins"].mean_latency_s,
             (1.5, INF)),
        )),
    "a8-policy": Experiment(
        "§5", "A8b - offload policy at light load (50 K IOPS paced)",
        run=a8_offload_policy,
        columns=(("policy", itemgetter(0)),
                 ("K IOPS", lambda item: _k(item[1].iops)),
                 ("mean latency (us)",
                  lambda item: item[1].mean_latency_s * 1e6),
                 ("peak latency (us)",
                  lambda item: item[1].peak_latency_s * 1e6)),
        checks=(
            ("slower policy keeps up with the offered load, K IOPS",
             lambda r: min(_k(report.iops) for report in r.values()),
             (45, INF)),
            ("mean latency, always-offload / saturation rule",
             lambda r: r["always"].mean_latency_s
             / r["saturation"].mean_latency_s, (10, INF)),
            ("saturation rule's mean latency (us)",
             lambda r: r["saturation"].mean_latency_s * 1e6, (-INF, 100)),
        )),
    "a9": Experiment(
        "§3.1(1)", "A9 - dedup across one mid-stream restart (dial: 2.0)",
        run=a9_restart,
        rows=lambda r: (
            ("dedup ratio", *(engine.metadata.dedup_ratio()
                              for engine in r.values())),
            ("physical MiB", *(engine.metadata.physical_bytes / MIB
                               for engine in r.values()))),
        columns=(("metric", itemgetter(0)), ("no restart", itemgetter(1)),
                 ("with restart", itemgetter(2))),
        checks=(
            ("dedup ratio, with restart < without",
             lambda r: tuple(r[run].metadata.dedup_ratio()
                             for run in ("with restart", "no restart")),
             "<"),
            ("duplicates the lost index missed",
             lambda r: r["with restart"].counters["uniques"]
             - r["no restart"].counters["uniques"], (1, INF)),
            ("one-time space overhead",
             lambda r: r["with restart"].metadata.physical_bytes
             / r["no restart"].metadata.physical_bytes - 1.0, (0.02, 0.60)),
            ("dedup ratio with restart",
             lambda r: r["with restart"].metadata.dedup_ratio(), (1.3, INF)),
        )),
    "a10": Experiment(
        "extension", "A10 - random 4 KiB chunk reads, reduced vs raw store",
        run=a10_read_path,
        columns=(("store", itemgetter(0)),
                 ("K IOPS", lambda item: _k(item[1].iops)),
                 ("mean latency (us)",
                  lambda item: item[1].mean_latency_s * 1e6),
                 ("cpu util", lambda item: item[1].cpu_utilization),
                 ("ssd util", lambda item: item[1].ssd_utilization)),
        checks=(
            ("lower SSD utilization of the two stores",
             lambda r: min(report.ssd_utilization for report in r.values()),
             (0.9, INF)),
            ("K IOPS, reduced / raw",
             lambda r: r["reduced"].iops / r["raw"].iops, (0.85, INF)),
            ("CPU utilization, raw < reduced",
             lambda r: (r["raw"].cpu_utilization,
                        r["reduced"].cpu_utilization), "<"),
            ("CPU utilization of the reduced store",
             lambda r: r["reduced"].cpu_utilization, (-INF, 0.5)),
        )),
    "a11": Experiment(
        "§3.1(2)", "A11 - lookup kernel variants (256 bins, 64 K entries)",
        run=a11_kernel_variants,
        columns=(("batch", itemgetter(0)),
                 ("simple (us)", lambda item: item[1]["simple_s"] * 1e6),
                 ("tiled (us)", lambda item: item[1]["tiled_s"] * 1e6),
                 ("global MB simple",
                  lambda item: item[1]["simple_bytes"] / 1e6),
                 ("global MB tiled",
                  lambda item: item[1]["tiled_bytes"] / 1e6)),
        checks=(
            ("global bytes, tiled / simple, worst batch",
             lambda r: max(v["tiled_bytes"] / v["simple_bytes"]
                           for v in r.values()), (-INF, 1)),
            ("global bytes, tiled / simple, largest batch",
             lambda r: r[max(r)]["tiled_bytes"] / r[max(r)]["simple_bytes"],
             (-INF, 0.5)),
            ("launch (us) at the largest batch, tiled < simple",
             lambda r: (r[max(r)]["tiled_s"] * 1e6,
                        r[max(r)]["simple_s"] * 1e6), "<"),
        )),
    "a13": Experiment(
        "extension", "A13 - compression batch size vs throughput",
        run=a13_batch_sweep,
        rows=lambda r: [(mode, batch, report) for mode, series in r.items()
                        for batch, report in series.items()],
        columns=(("mode", lambda row: row[0].value),
                 ("comp batch", itemgetter(1)),
                 ("K IOPS", lambda row: _k(row[2].iops)),
                 ("gpu util", lambda row: row[2].gpu_utilization),
                 ("queue wait (us)",
                  lambda row: row[2].gpu_mean_queue_wait_s * 1e6)),
        checks=(
            ("GPU_COMP K IOPS, better sweep end < peak",
             lambda r: _sweet_spot(r[_COMP]), "<"),
            ("GPU_BOTH K IOPS, better sweep end < peak",
             lambda r: _sweet_spot(r[_BOTH]), "<"),
            ("K IOPS at batch 512, GPU_BOTH < GPU_COMP",
             lambda r: (_k(r[_BOTH][512].iops), _k(r[_COMP][512].iops)),
             "<"),
            ("K IOPS at batch 256, GPU_BOTH < GPU_COMP",
             lambda r: (_k(r[_BOTH][256].iops), _k(r[_COMP][256].iops)),
             "<"),
            ("best GPU_BOTH / best GPU_COMP",
             lambda r: _sweet_spot(r[_BOTH])[1] / _sweet_spot(r[_COMP])[1],
             (0.95, INF)),
            ("GPU_BOTH queue wait (us), batch 32 < batch 512",
             lambda r: tuple(r[_BOTH][batch].gpu_mean_queue_wait_s * 1e6
                             for batch in (32, 512)), "<"),
        )),
    "a14": Experiment(
        "§1, extension", "A14 - FTL wear under identical logical churn",
        run=a14_ftl_endurance,
        columns=(("strategy", itemgetter(0)),
                 ("utilization", lambda item: item[1].utilization),
                 ("write amp", lambda item: item[1].write_amplification()),
                 ("NAND pages", lambda item: item[1].nand_pages_written),
                 ("erases", lambda item: item[1].erases)),
        checks=(
            ("utilization, reduced / raw",
             lambda r: r["reduced"].utilization / r["raw"].utilization,
             (-INF, 0.5)),
            ("write amplification, reduced < raw",
             lambda r: tuple(r[name].write_amplification()
                             for name in ("reduced", "raw")), "<"),
            ("raw write amplification at 85% fill",
             lambda r: r["raw"].write_amplification(), (1.3, INF)),
            ("NAND pages, raw / reduced (the reduction alone is 4x)",
             lambda r: r["raw"].nand_pages_written
             / r["reduced"].nand_pages_written, (4.5, INF)),
            ("raw / reduced, NAND pages < erases",
             lambda r: tuple(getattr(r["raw"], name)
                             / max(1, getattr(r["reduced"], name))
                             for name in ("nand_pages_written", "erases")),
             "<"),
        )),
    "a15": Experiment(
        "extension", "A15 - reduction stacks on a near-duplicate stream "
                     "(25% exact dups, 35% near dups)",
        run=a15_delta_reduction,
        columns=(("stack", itemgetter(0)),
                 ("physical KiB",
                  lambda item: item[1]["physical_bytes"] / 1024),
                 ("reduction", lambda item: f"{item[1]['reduction']:.2f}x"),
                 ("deltas", lambda item: item[1]["deltas"])),
        checks=(
            ("reduction, dedup+lz / lz_only",
             lambda r: r["dedup+lz"]["reduction"]
             / r["lz_only"]["reduction"], (1.2, INF)),
            ("reduction, dedup+delta+lz / dedup+lz",
             lambda r: r["dedup+delta+lz"]["reduction"]
             / r["dedup+lz"]["reduction"], (1.4, INF)),
            ("chunks stored as deltas",
             lambda r: r["dedup+delta+lz"]["deltas"], (21, INF)),
        )),
    "a16": Experiment(
        "§13, extension", "A16 - inline hit rate vs the hot tenant's "
                          "traffic share (cache 96)",
        run=a16_tenant_mix,
        columns=(("hot weight", itemgetter(0)),
                 ("hot share", lambda item: item[0] / (item[0] + 1.0)),
                 ("shared LRU",
                  lambda item: item[1]["shared_lru"].inline_hit_rate),
                 ("prioritized",
                  lambda item: item[1]["prioritized"].inline_hit_rate),
                 ("gain", lambda item: f"{_gain(item[1]):.2f}x")),
        checks=(
            ("1 < smallest prioritized / shared-LRU gain",
             lambda r: (1.0, min(map(_gain, r.values()))), "<"),
            ("gain shrinks as the hot tenant's share grows",
             lambda r: tuple(map(_gain, r.values())), ">="),
        )),
    "a17": Experiment(
        "§13, extension", "A17 - inline hit rate vs cache capacity "
                          "(committed hot/cold mix)",
        run=a17_cache_contention,
        columns=(("cache entries", itemgetter(0)),
                 ("shared LRU",
                  lambda item: item[1]["shared_lru"].inline_hit_rate),
                 ("prioritized",
                  lambda item: item[1]["prioritized"].inline_hit_rate),
                 ("gain", lambda item: f"{_gain(item[1]):.2f}x"),
                 ("recovery",
                  lambda item: item[1]["prioritized"].recovery_fraction)),
        checks=(
            ("1 < smallest prioritized / shared-LRU gain",
             lambda r: (1.0, min(map(_gain, r.values()))), "<"),
            ("gain at cache 96 (tier-1 floor at 8192 chunks)",
             lambda r: _gain(r[96]), (1.2, INF)),
            ("shared-LRU hit rate grows with capacity",
             lambda r: tuple(reports["shared_lru"].inline_hit_rate
                             for reports in r.values()), "<="),
            ("lowest oracle-dedup recovery after compaction",
             lambda r: min(reports["prioritized"].recovery_fraction
                           for reports in r.values()), (0.95, INF)),
        )),
}


# ---------------------------------------------------------------------------
# Generated regions: ``<!-- repro:<id> -->`` ... ``<!-- /repro -->``.
# ---------------------------------------------------------------------------

_REGION = re.compile(r"(<!-- repro:([\w-]+) -->\n).*?(<!-- /repro -->)",
                     re.S)


def regenerate(text: str,
               table: Optional[Mapping[str, Experiment]] = None,
               echo: Callable[[str], None] = lambda _text: None
               ) -> tuple[str, bool]:
    """Rerun every row of ``table`` (default :data:`EXPERIMENTS`) and
    rewrite its region of ``text``.

    Returns the new text and whether every check held.  Raises
    :class:`ReproError` — before running anything — unless the rows and
    the regions pair one to one.  ``echo`` sees each row's output as it
    finishes.
    """
    table = EXPERIMENTS if table is None else table
    found = [match.group(2) for match in _REGION.finditer(text)]
    missing = [key for key in table if key not in found]
    orphans = [key for key in found if key not in table]
    twice = sorted({key for key in found if found.count(key) > 1})
    if missing or orphans or twice:
        raise ReproError(f"rows without a region: {missing}; regions "
                         f"without a row: {orphans}; regions repeated: "
                         f"{twice}")
    bodies = {}
    passed = True
    for key, experiment in table.items():
        bodies[key], ok = experiment.report()
        passed = passed and ok
        echo(bodies[key])
    return _REGION.sub(lambda match: f"{match.group(1)}```text\n"
                       f"{bodies[match.group(2)]}\n```\n{match.group(3)}",
                       text), passed
