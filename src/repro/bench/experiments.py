"""Experiment definitions: one function per paper table/figure + ablations.

Every function builds fresh simulated hardware, runs the workload the
paper describes (2 GB-class streams, dedup ratio 2.0, compression ratio
2.0, 4 KiB chunks — scaled by ``n_chunks`` so CI stays fast; pass
``n_chunks=524288`` for the full 2 GB), and returns structured rows.
The ``benchmarks/`` pytest files print these through
:mod:`~repro.bench.reporting` and assert the paper's shape.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.cluster import ClusterConfig, ClusterEngine, ShardMap
from repro.cluster.engine import REBALANCE_ENTRY_BYTES
from repro.core.calibration import CalibrationResult, calibrate_mode, run_mode
from repro.core.config import PipelineConfig
from repro.core.modes import IntegrationMode
from repro.core.stats import PipelineReport
from repro.compression.lzss import LzssCodec
from repro.compression.postprocess import refine_tile
from repro.cpu.costs import DEFAULT_COSTS
from repro.cpu.model import CpuSpec, I7_2600K, SimCpu
from repro.dedup.bins import BinTable
from repro.dedup.gpu_index import GpuBinIndex
from repro.dedup.replacement import (
    FifoReplacement,
    LruReplacement,
    RandomReplacement,
    ReplacementPolicy,
)
from repro.gpu.device import GpuDevice, GpuSpec
from repro.gpu.kernels.lz import SegmentLzKernel
from repro.sim import Environment
from repro.storage.block import BlockRequest, RequestKind
from repro.storage.ssd import SAMSUNG_SSD_830, SsdModel
from repro.tenancy import TenantMix, TenantSpec
from repro.tenancy.runner import run_tenant_mix
from repro.workload.datagen import BlockContentGenerator
from repro.workload.patterns import ZipfPattern
from repro.workload.vdbench import VdbenchStream

#: The paper's SSD yardstick, quoted everywhere ("about 80 K IOPS").
SSD_IOPS = SAMSUNG_SSD_830.write_iops_4k


def registry() -> dict[str, callable]:
    """Experiment id -> zero-argument callable (CLI / tooling hook)."""
    return {
        "e1": e1_indexing,
        "e2": e2_dedup,
        "e3": e3_compression,
        "e4": e4_integration,
        "e5": e5_workflow,
        "a1": a1_thread_scaling,
        "a2": a2_prefix_truncation,
        "a3": a3_bin_buffer,
        "a4": a4_replacement,
        "a5": a5_calibration,
        "a6": a6_inline_vs_background,
        "a7": a7_segment_sweep,
        "a8-lock": a8_index_locking,
        "a8-policy": a8_offload_policy,
        "a9": a9_restart,
        "a10": a10_read_path,
        "a11": a11_kernel_variants,
        "a13": a13_batch_sweep,
        "a14": a14_ftl_endurance,
        "a15": a15_delta_reduction,
        "a16": a16_tenant_mix,
        "a17": a17_cache_contention,
        "a18": a18_cluster_skew,
    }


def _fingerprint(n: int) -> bytes:
    return hashlib.sha1(n.to_bytes(8, "big")).digest()


# ---------------------------------------------------------------------------
# E1 — §3.1(3): CPU vs GPU indexing execution time (the preliminary
# experiment that decides the GPU is only an indexing co-processor).
# ---------------------------------------------------------------------------

@dataclass
class E1Row:
    """One batch size's CPU-vs-GPU indexing comparison."""

    batch: int
    cpu_seconds: float
    gpu_seconds: float

    @property
    def cpu_advantage(self) -> float:
        """How many times faster the CPU batch completes."""
        return self.gpu_seconds / self.cpu_seconds


def e1_indexing(batch_sizes: Sequence[int] = (16, 32, 48, 64, 128, 256),
                n_entries: int = 65536, prefix_bytes: int = 1,
                hit_fraction: float = 0.5) -> list[E1Row]:
    """Time one indexing batch on the CPU and on the GPU.

    Both sides hold the same ``n_entries`` fingerprints ("The number of
    hash table entries used for indexing remains the same on the CPU and
    GPU for a fair comparison").
    """
    costs = DEFAULT_COSTS
    cpu_table = BinTable(prefix_bytes=prefix_bytes)
    gpu_table = GpuBinIndex(prefix_bytes=prefix_bytes, bin_capacity=8192)
    for i in range(n_entries):
        cpu_table.insert(_fingerprint(i), True)
        gpu_table.insert(_fingerprint(i))

    rows = []
    for batch in batch_sizes:
        hits = int(batch * hit_fraction)
        queries = [_fingerprint(i) for i in range(hits)] + \
            [_fingerprint(n_entries + i) for i in range(batch - hits)]

        # -- CPU: dispatch the batch across the thread pool --
        env = Environment()
        cpu = SimCpu(env)

        def lookup_task(fingerprint):
            depth = cpu_table.bin_depth(fingerprint)
            yield from cpu.execute(costs.bin_tree_probe(depth))
            cpu_table.lookup(fingerprint)

        def cpu_batch():
            yield from cpu.execute(costs.dispatch_per_batch)
            tasks = [env.process(lookup_task(q)) for q in queries]
            yield env.all_of(tasks)

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
        rows.append(E1Row(batch=batch, cpu_seconds=cpu_seconds,
                          gpu_seconds=env.now))
    return rows


# ---------------------------------------------------------------------------
# E2 — §4(1): parallel deduplication throughput.
# ---------------------------------------------------------------------------

def e2_dedup(n_chunks: int = 65536,
             dedup_ratio: float = 2.0) -> dict[str, PipelineReport]:
    """Dedup-only pipeline: CPU-only versus GPU-assisted."""
    results = {}
    for label, mode in (("cpu_only", IntegrationMode.CPU_ONLY),
                        ("gpu_assisted", IntegrationMode.GPU_DEDUP)):
        config = PipelineConfig(mode=mode, enable_compression=False)
        results[label] = run_mode(mode, n_chunks, base_config=config,
                                  dedup_ratio=dedup_ratio)
    return results


# ---------------------------------------------------------------------------
# E3 — §4(2): parallel compression throughput vs compression ratio.
# ---------------------------------------------------------------------------

@dataclass
class E3Row:
    """One compression-ratio point of the E3 sweep."""

    comp_ratio: float
    cpu_iops: float
    gpu_iops: float
    ssd_iops: float = SSD_IOPS

    @property
    def gpu_advantage(self) -> float:
        return self.gpu_iops / self.cpu_iops


def e3_compression(ratios: Sequence[float] = (1.2, 1.5, 2.0, 3.0, 4.0),
                   n_chunks: int = 32768) -> list[E3Row]:
    """Compression-only pipeline across the compressibility dial."""
    rows = []
    for ratio in ratios:
        cpu_cfg = PipelineConfig(mode=IntegrationMode.CPU_ONLY,
                                 enable_dedup=False)
        cpu = run_mode(IntegrationMode.CPU_ONLY, n_chunks,
                       base_config=cpu_cfg, comp_ratio=ratio)
        gpu_cfg = PipelineConfig(mode=IntegrationMode.GPU_COMP,
                                 enable_dedup=False)
        gpu = run_mode(IntegrationMode.GPU_COMP, n_chunks,
                       base_config=gpu_cfg, comp_ratio=ratio)
        rows.append(E3Row(comp_ratio=ratio, cpu_iops=cpu.iops,
                          gpu_iops=gpu.iops))
    return rows


# ---------------------------------------------------------------------------
# E4 — Fig. 2 / §4(3): throughput of the four integration modes.
# ---------------------------------------------------------------------------

def e4_integration(n_chunks: int = 65536, dedup_ratio: float = 2.0,
                   comp_ratio: float = 2.0
                   ) -> dict[IntegrationMode, PipelineReport]:
    """The integrated pipeline in every mode (regenerates Fig. 2)."""
    return {mode: run_mode(mode, n_chunks, dedup_ratio=dedup_ratio,
                           comp_ratio=comp_ratio)
            for mode in IntegrationMode.all_modes()}


# ---------------------------------------------------------------------------
# E5 — Fig. 1: the integrated workflow, every decision edge exercised.
# ---------------------------------------------------------------------------

def e5_workflow(n_chunks: int = 32768) -> PipelineReport:
    """One GPU_BOTH run; its counters are Fig. 1's edges."""
    return run_mode(IntegrationMode.GPU_BOTH, n_chunks)


# ---------------------------------------------------------------------------
# A1 — §3.1(1): lock-free bin scaling across thread counts.
# ---------------------------------------------------------------------------

@dataclass
class A1Row:
    """Dedup throughput at one CPU thread count."""

    threads: int
    iops: float


def a1_thread_scaling(thread_counts: Sequence[int] = (1, 2, 4, 8),
                      n_chunks: int = 16384) -> list[A1Row]:
    """CPU-only dedup throughput as the core count grows.

    Bins mean no locks, so throughput should scale near-linearly until
    SMT sharing flattens it — which is the design argument of §3.1(1).
    """
    rows = []
    for threads in thread_counts:
        # Up to 4 threads we add physical cores (the i7-2600K has 4);
        # beyond that the extra threads are SMT siblings and run derated.
        cores = min(threads, I7_2600K.cores)
        spec = CpuSpec(name=f"{threads}T", cores=cores, threads=threads,
                       freq_hz=I7_2600K.freq_hz,
                       smt_derate=(I7_2600K.smt_derate
                                   if threads > cores else 1.0))
        config = PipelineConfig(mode=IntegrationMode.CPU_ONLY,
                                enable_compression=False)
        report = run_mode(IntegrationMode.CPU_ONLY, n_chunks,
                          base_config=config, cpu_spec=spec,
                          gpu_spec=None)
        rows.append(A1Row(threads=threads, iops=report.iops))
    return rows


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
# A2 — §3.1(1): prefix truncation memory arithmetic.
# ---------------------------------------------------------------------------

@dataclass
class A2Row:
    """Index memory at one prefix size, at the paper's 4 TB scale."""

    prefix_bytes: int
    entries: int
    memory_bytes: int
    saved_vs_full: int


def a2_prefix_truncation(capacity_bytes: int = 4 * 1024**4,
                         chunk_bytes: int = 8 * 1024,
                         metadata_bytes: int = 12) -> list[A2Row]:
    """The paper's sizing: 4 TB / 8 KB chunks, 32 B entries => 16 GB,
    minus 1 GB per two prefix bytes dropped."""
    entries = capacity_bytes // chunk_bytes
    rows = []
    for prefix_bytes in (0, 1, 2, 4):
        key_bytes = 20 - prefix_bytes
        memory = entries * (key_bytes + metadata_bytes)
        rows.append(A2Row(prefix_bytes=prefix_bytes, entries=entries,
                          memory_bytes=memory,
                          saved_vs_full=entries * prefix_bytes))
    return rows


# ---------------------------------------------------------------------------
# A3 — §3.3: bin-buffer size vs locality hits and flush sequentiality.
# ---------------------------------------------------------------------------

@dataclass
class A3Row:
    """One bin-buffer budget point."""

    buffer_total: int
    buffer_hit_fraction: float
    mean_flush_chunks: float
    iops: float


def a3_bin_buffer(totals: Sequence[int] = (512, 2048, 8192, 32768),
                  n_chunks: int = 32768) -> list[A3Row]:
    """Sweep the bin-buffer budget in a CPU-only dedup run."""
    rows = []
    for total in totals:
        config = PipelineConfig(mode=IntegrationMode.CPU_ONLY,
                                enable_compression=False,
                                bin_buffer_total=total)
        report = run_mode(IntegrationMode.CPU_ONLY, n_chunks,
                          base_config=config)
        dups = report.duplicates_found
        buffer_fraction = (report.counters["buffer_hits"] / dups
                           if dups else 0.0)
        flushes = report.counters["flushes"] or 1
        rows.append(A3Row(
            buffer_total=total,
            buffer_hit_fraction=buffer_fraction,
            mean_flush_chunks=report.counters["uniques"] / flushes,
            iops=report.iops))
    return rows


# ---------------------------------------------------------------------------
# A4 — §3.3: GPU-bin replacement policy comparison.
# ---------------------------------------------------------------------------

@dataclass
class A4Row:
    """One replacement policy's hit rate under a constrained GPU bin."""

    policy: str
    hit_rate: float
    evictions: int


def a4_replacement(n_uniques: int = 4096, n_lookups: int = 30000,
                   bin_capacity: int = 8, prefix_bytes: int = 1,
                   skew: float = 1.1, seed: int = 5) -> list[A4Row]:
    """Drive each policy with a Zipf-skewed lookup stream over bins far
    smaller than the working set, so eviction choices matter."""
    policies: list[tuple[str, ReplacementPolicy]] = [
        ("random", RandomReplacement(seed=seed)),
        ("fifo", FifoReplacement()),
        ("lru", LruReplacement()),
    ]
    rows = []
    for name, policy in policies:
        index = GpuBinIndex(prefix_bytes=prefix_bytes,
                            bin_capacity=bin_capacity, policy=policy)
        pattern = ZipfPattern(n_uniques, skew=skew, seed=seed)
        for _ in range(n_lookups):
            fingerprint = _fingerprint(pattern.next_slot())
            hit = index.lookup_host([fingerprint])[0]
            if not hit:
                index.insert(fingerprint)
        rows.append(A4Row(policy=name, hit_rate=index.hit_rate(),
                          evictions=index.evictions))
    return rows


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

@dataclass
class A6Result:
    """NAND programming volume for the two reduction strategies."""

    logical_bytes: int
    inline_nand_bytes: int
    background_nand_bytes: int

    @property
    def endurance_advantage(self) -> float:
        """How many times less NAND the inline strategy programs."""
        return self.background_nand_bytes / self.inline_nand_bytes


def a6_inline_vs_background(n_chunks: int = 32768,
                            dedup_ratio: float = 2.0,
                            comp_ratio: float = 2.0) -> A6Result:
    """Inline reduces then writes once; background writes everything raw
    and later rewrites the reduced copy ("this generates more write I/O
    than systems without the data reduction operations")."""
    inline = run_mode(IntegrationMode.CPU_ONLY, n_chunks,
                      dedup_ratio=dedup_ratio, comp_ratio=comp_ratio)
    logical = inline.bytes_in

    # Background: land the full stream raw first, then rewrite the
    # reduced form the offline pass produces.
    env = Environment()
    ssd = SsdModel(env)

    def writer():
        for _ in range(n_chunks):
            yield from ssd.submit(BlockRequest(
                RequestKind.WRITE, 0, 4096, sequential=True))
        # Offline pass rewrites the reduced data.
        reduced = int(logical / inline.reduction_ratio)
        yield from ssd.submit(BlockRequest(
            RequestKind.WRITE, 0, max(4096, reduced), sequential=True))

    env.process(writer())
    env.run()
    return A6Result(logical_bytes=logical,
                    inline_nand_bytes=inline.nand_bytes_written,
                    background_nand_bytes=ssd.nand_bytes_written)


# ---------------------------------------------------------------------------
# A8 — §5 related-work baselines: locked global index (P-Dedupe-class)
# and GPU-only indexing (GHOST-class).
# ---------------------------------------------------------------------------

@dataclass
class A8LockRow:
    """Bins vs one global index lock, dedup-only at full load."""

    discipline: str
    iops: float
    mean_latency_s: float


def a8_index_locking(n_chunks: int = 16384) -> list[A8LockRow]:
    """The paper's lock-free bins against a conventional locked table."""
    rows = []
    for discipline in ("bins", "global"):
        config = PipelineConfig(mode=IntegrationMode.CPU_ONLY,
                                enable_compression=False,
                                index_locking=discipline)
        report = run_mode(IntegrationMode.CPU_ONLY, n_chunks,
                          base_config=config)
        rows.append(A8LockRow(discipline=discipline, iops=report.iops,
                              mean_latency_s=report.mean_latency_s))
    return rows


@dataclass
class A8PolicyRow:
    """Offload policy under light, paced load (latency view)."""

    policy: str
    iops: float
    mean_latency_s: float
    peak_latency_s: float


def a8_offload_policy(n_chunks: int = 8192,
                      arrival_rate_iops: float = 50e3
                      ) -> list[A8PolicyRow]:
    """The paper's saturation rule vs GHOST-style always-offload.

    Below CPU saturation the paper's rule keeps indexing local and
    cheap; forcing every lookup through GPU batches pays a batch-fill +
    launch round trip per chunk — the critique in §5 of GPU-only
    indexing designs.
    """
    rows = []
    for policy in ("saturation", "always"):
        config = PipelineConfig(mode=IntegrationMode.GPU_DEDUP,
                                enable_compression=False,
                                gpu_index_policy=policy,
                                arrival_rate_iops=arrival_rate_iops)
        report = run_mode(IntegrationMode.GPU_DEDUP, n_chunks,
                          base_config=config)
        rows.append(A8PolicyRow(policy=policy, iops=report.iops,
                                mean_latency_s=report.mean_latency_s,
                                peak_latency_s=report.peak_latency_s))
    return rows


# ---------------------------------------------------------------------------
# A9 — §3.1(1): RAM-only index across a restart ("not a big deal").
# ---------------------------------------------------------------------------

@dataclass
class A9Result:
    """Dedup effectiveness with and without a mid-stream restart."""

    baseline_dedup_ratio: float
    restarted_dedup_ratio: float
    baseline_physical_bytes: int
    restarted_physical_bytes: int
    duplicates_missed: int

    @property
    def space_overhead(self) -> float:
        """Extra physical bytes caused by the lost index."""
        return (self.restarted_physical_bytes
                / self.baseline_physical_bytes) - 1.0


def _run_dedup_stream(stream_chunks, restart_at: Optional[int]) -> tuple:
    """Feed a descriptor stream through a functional dedup engine."""
    from repro.dedup.engine import DedupEngine

    engine = DedupEngine(prefix_bytes=1, bin_buffer_total=2048)
    missed = 0
    known: set[bytes] = set()
    for i, chunk in enumerate(stream_chunks):
        if restart_at is not None and i == restart_at:
            engine.restart()
        outcome = engine.cpu_index(chunk)
        if outcome.duplicate:
            engine.commit_duplicate(chunk)
        else:
            if chunk.fingerprint in known:
                missed += 1  # a duplicate the lost index cannot see
            chunk.compressed_size = max(1, int(
                chunk.size / chunk.effective_ratio()))
            engine.commit_unique(chunk)
        known.add(chunk.fingerprint)
    engine.drain()
    return engine, missed


def a9_restart(n_chunks: int = 20000, dedup_ratio: float = 2.0,
               seed: int = 17) -> A9Result:
    """Measure the dedup the RAM-only index loses across one restart.

    The same stream runs twice: uninterrupted, and with a restart at the
    midpoint.  The gap is the paper's "cannot find some duplicate data"
    — bounded, because only pre-restart content is affected and the
    index rebuilds as new (post-restart) content flows.
    """
    def fresh_stream():
        return VdbenchStream(dedup_ratio=dedup_ratio, comp_ratio=2.0,
                             seed=seed).chunks(n_chunks)

    baseline, _ = _run_dedup_stream(fresh_stream(), restart_at=None)
    restarted, missed = _run_dedup_stream(fresh_stream(),
                                          restart_at=n_chunks // 2)
    return A9Result(
        baseline_dedup_ratio=baseline.metadata.dedup_ratio(),
        restarted_dedup_ratio=restarted.metadata.dedup_ratio(),
        baseline_physical_bytes=baseline.metadata.physical_bytes,
        restarted_physical_bytes=restarted.metadata.physical_bytes,
        duplicates_missed=missed,
    )


# ---------------------------------------------------------------------------
# A11 — §3.1(2): simple vs local-memory-tiled lookup kernel.
# ---------------------------------------------------------------------------

@dataclass
class A11Row:
    """Launch time of both lookup-kernel variants at one batch size."""

    batch: int
    simple_seconds: float
    tiled_seconds: float
    simple_global_bytes: float
    tiled_global_bytes: float


def a11_kernel_variants(batch_sizes: Sequence[int] = (64, 256, 1024),
                        n_entries: int = 65536,
                        prefix_bytes: int = 1,
                        seed: int = 9) -> list[A11Row]:
    """Compare the per-thread global scan against the workgroup-tiled
    local-memory kernel across batch sizes.

    With a 1-byte prefix, batches of a few hundred queries hit the same
    256 bins repeatedly; the tiled kernel stages each bin once instead
    of streaming it per query, which is the §3.1(2) local-memory
    argument in numbers.
    """
    import random as _random

    index = GpuBinIndex(prefix_bytes=prefix_bytes, bin_capacity=8192)
    for i in range(n_entries):
        index.insert(_fingerprint(i))
    rng = _random.Random(seed)

    rows = []
    for batch in batch_sizes:
        queries = [_fingerprint(rng.randrange(2 * n_entries))
                   for _ in range(batch)]
        env = Environment()
        gpu = GpuDevice(env)
        simple = index.make_kernel(queries)
        tiled = index.make_kernel(queries, tiled=True)
        rows.append(A11Row(
            batch=batch,
            simple_seconds=gpu.launch_time(simple),
            tiled_seconds=gpu.launch_time(tiled),
            simple_global_bytes=simple.cost().bytes_read,
            tiled_global_bytes=tiled.cost().bytes_read,
        ))
    return rows


# ---------------------------------------------------------------------------
# A15 — delta compression for near-duplicates (extension; DEC-class).
# ---------------------------------------------------------------------------

@dataclass
class A15Row:
    """Space outcome of one reduction stack on a near-duplicate stream."""

    stack: str
    physical_bytes: int
    reduction_ratio: float
    deltas_encoded: int = 0


def a15_delta_reduction(n_chunks: int = 400, exact_dup: float = 0.25,
                        near_dup: float = 0.35, edits: int = 6,
                        comp_ratio: float = 2.0,
                        seed: int = 41) -> list[A15Row]:
    """Near-duplicate-heavy stream through three reduction stacks.

    Deduplication removes exact duplicates only; the stream's *near*
    duplicates (point-edited copies, the VM-image/record-update pattern)
    defeat it.  Resemblance sketches + delta encoding (DEC-class, the
    literature around the paper) capture them: the delta of a 6-edit
    4 KiB chunk is tens of bytes.
    """
    import random as _random

    from repro.compression.delta import (
        DeltaCodec,
        SimilarityIndex,
        sketch,
    )
    from repro.compression.lzss import LzssCodec

    rng = _random.Random(seed)
    content = BlockContentGenerator(comp_ratio, seed=seed)
    bases: list[bytes] = []
    stream: list[bytes] = []
    for i in range(n_chunks):
        draw = rng.random()
        if bases and draw < exact_dup:
            stream.append(bases[rng.randrange(len(bases))])
        elif bases and draw < exact_dup + near_dup:
            base = bytearray(bases[rng.randrange(len(bases))])
            for _ in range(edits):
                base[rng.randrange(len(base))] = rng.randrange(256)
            stream.append(bytes(base))
        else:
            block = content.make_block(4096, salt=i)
            bases.append(block)
            stream.append(block)

    lz = LzssCodec()
    delta_codec = DeltaCodec()

    # Stack 1: LZ only.
    lz_only = sum(min(len(lz.encode(chunk)), len(chunk))
                  for chunk in stream)

    # Stack 2: exact dedup + LZ.
    import hashlib as _hashlib
    seen: set[bytes] = set()
    dedup_lz = 0
    for chunk in stream:
        digest = _hashlib.sha1(chunk).digest()
        if digest in seen:
            continue
        seen.add(digest)
        dedup_lz += min(len(lz.encode(chunk)), len(chunk))

    # Stack 3: exact dedup + similarity delta + LZ.
    seen = set()
    stored: dict[int, bytes] = {}
    similarity = SimilarityIndex()
    dedup_delta_lz = 0
    deltas = 0
    for chunk in stream:
        digest = _hashlib.sha1(chunk).digest()
        if digest in seen:
            continue
        seen.add(digest)
        chunk_sketch = sketch(chunk)
        reference_id = similarity.find_similar(chunk_sketch)
        if reference_id is not None:
            delta = delta_codec.encode(stored[reference_id], chunk)
            lz_size = min(len(lz.encode(chunk)), len(chunk))
            if len(delta) < lz_size:
                dedup_delta_lz += len(delta)
                deltas += 1
                continue
        chunk_id = len(stored)
        stored[chunk_id] = chunk
        similarity.insert(chunk_id, chunk_sketch)
        dedup_delta_lz += min(len(lz.encode(chunk)), len(chunk))

    logical = n_chunks * 4096
    return [
        A15Row("lz_only", lz_only, logical / lz_only),
        A15Row("dedup+lz", dedup_lz, logical / dedup_lz),
        A15Row("dedup+delta+lz", dedup_delta_lz,
               logical / dedup_delta_lz, deltas_encoded=deltas),
    ]


# ---------------------------------------------------------------------------
# A14 — FTL-level compound endurance (extension of the §1 motivation).
# ---------------------------------------------------------------------------

@dataclass
class A14Row:
    """Flash wear for one storage strategy under the same logical churn."""

    strategy: str
    utilization: float
    write_amplification: float
    nand_pages: int
    erases: int


def a14_ftl_endurance(blocks: int = 64, pages_per_block: int = 64,
                      working_set_fraction: float = 0.85,
                      reduction_ratio: float = 4.0,
                      churn_rounds: int = 8,
                      seed: int = 31) -> list[A14Row]:
    """The same logical overwrite churn on a raw vs a reduced device.

    Inline reduction helps flash endurance *twice*: it shrinks the host
    write stream by the reduction ratio, AND the emptier device gives
    the garbage collector easy victims, so each remaining write carries
    a lower write-amplification factor.  This experiment runs identical
    logical churn (working set ~85% of raw capacity) against a
    page-mapped FTL with and without a 4x (dedup 2.0 x comp 2.0)
    reduction in front of it.
    """
    import random as _random

    from repro.storage.ftl import Ftl, FtlSpec

    total_pages = blocks * pages_per_block
    logical_pages = int(total_pages * working_set_fraction)
    rows = []
    for strategy, factor in (("raw", 1.0), ("reduced", reduction_ratio)):
        ftl = Ftl(FtlSpec(blocks=blocks, pages_per_block=pages_per_block))
        physical_pages = max(1, int(logical_pages / factor))
        rng = _random.Random(seed)
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
        rows.append(A14Row(
            strategy=strategy,
            utilization=ftl.utilization,
            write_amplification=ftl.write_amplification(),
            nand_pages=ftl.nand_pages_written,
            erases=ftl.erases,
        ))
    return rows


# ---------------------------------------------------------------------------
# A13 — compression batch size on the shared device queue (extension).
# ---------------------------------------------------------------------------

@dataclass
class A13Row:
    """One (mode, batch-size) point of the sharing-trade sweep."""

    mode: IntegrationMode
    comp_batch: int
    iops: float
    gpu_utilization: float
    gpu_mean_queue_wait_s: float


def a13_batch_sweep(batch_sizes: Sequence[int] = (32, 64, 128, 256, 512),
                    n_chunks: int = 32768) -> list[A13Row]:
    """Sweep the compression batch size in GPU_COMP and GPU_BOTH.

    The batch size sets the device-queue occupancy per launch, which is
    the whole Fig. 2 mechanism: small batches drown in launch overhead,
    large batches block the queue for milliseconds and starve the
    latency-critical index lookups GPU_BOTH interleaves.  The paper's
    operating regime (2012-era launch overheads pushing batches large)
    makes GPU_COMP win; the sweep also shows the *extension* result —
    at the sweet spot, a tuned GPU_BOTH recovers and can edge past
    GPU_COMP, because contention shrinks faster than the offload gain.

    (Priority scheduling on the queue — ``gpu_queue_priority`` — does
    *not* recover GPU_BOTH by itself: index batches wait behind the
    *running* compression kernel, and kernels are not preemptable.)
    """
    rows = []
    for mode in (IntegrationMode.GPU_COMP, IntegrationMode.GPU_BOTH):
        for batch in batch_sizes:
            config = PipelineConfig(mode=mode, gpu_comp_batch=batch)
            report = run_mode(mode, n_chunks, base_config=config)
            rows.append(A13Row(
                mode=mode, comp_batch=batch, iops=report.iops,
                gpu_utilization=report.gpu_utilization,
                gpu_mean_queue_wait_s=report.gpu_mean_queue_wait_s))
    return rows


# ---------------------------------------------------------------------------
# A10 — read-path cost of reduction (extension; the paper's intro
# motivates primary storage, which serves reads too).
# ---------------------------------------------------------------------------

@dataclass
class A10Row:
    """Read throughput for one serving strategy."""

    strategy: str
    iops: float
    mean_latency_s: float
    cpu_utilization: float
    ssd_utilization: float


def a10_read_path(n_chunks: int = 12000, n_reads: int = 20000,
                  seed: int = 23) -> list[A10Row]:
    """Random chunk reads from a reduced volume vs a raw volume.

    Populates metadata through the functional dedup engine, then serves
    a uniform random read workload through the timed read pipeline —
    once against the reduced store (compressed extents + CPU decode) and
    once against an equivalent raw store.
    """
    import random as _random

    from repro.core.readpath import ReadPipeline

    stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=seed)
    engine, _ = _run_dedup_stream(stream.chunks(n_chunks),
                                  restart_at=None)
    rng = _random.Random(seed)
    offsets = [rng.randrange(n_chunks) * 4096 for _ in range(n_reads)]

    rows = []
    for strategy in ("reduced", "raw"):
        env = Environment()
        if strategy == "reduced":
            pipeline = ReadPipeline(env, engine.metadata)
        else:
            raw_metadata = _raw_equivalent_store(engine.metadata,
                                                 n_chunks)
            pipeline = ReadPipeline(env, raw_metadata, decompress=False)
        report = pipeline.run(offsets)
        rows.append(A10Row(strategy=strategy, iops=report.iops,
                           mean_latency_s=report.mean_latency_s,
                           cpu_utilization=report.cpu_utilization,
                           ssd_utilization=report.ssd_utilization))
    return rows


def _raw_equivalent_store(source, n_chunks: int):
    """A metadata store serving the same offsets with unreduced chunks."""
    from repro.storage.metadata import MetadataStore

    raw = MetadataStore()
    seen: set[bytes] = set()
    for offset in range(0, n_chunks * 4096, 4096):
        record = source.resolve(offset)
        if record.fingerprint not in seen:
            raw.store_unique(record.fingerprint, record.size,
                             record.size)  # stored uncompressed
            seen.add(record.fingerprint)
        raw.map_logical(offset, record.fingerprint, record.size)
    return raw


# ---------------------------------------------------------------------------
# A7 — §3.2(2): GPU segment count vs compression-ratio loss.
# ---------------------------------------------------------------------------

@dataclass
class A7Row:
    """One segment-count point of the ratio/latency trade."""

    segments: int
    ratio: float
    ratio_loss_vs_serial: float
    kernel_critical_path_s: float


def a7_segment_sweep(segment_counts: Sequence[int] = (1, 2, 4, 8, 16),
                     n_blocks: int = 6, target_ratio: float = 2.0,
                     seed: int = 3) -> list[A7Row]:
    """Real payload compression at each segment count.

    More segments = shorter per-thread critical path (latency win) but a
    slightly worse ratio (matches cannot cross into a segment's own
    future) — the §3.2(2) design trade the paper accepts.
    """
    generator = BlockContentGenerator(target_ratio, seed=seed)
    generator.calibrate()
    blocks = [generator.make_block(4096, salt=s) for s in range(n_blocks)]
    serial_codec = LzssCodec()
    serial_ratio = sum(len(b) for b in blocks) / \
        sum(len(serial_codec.encode(b)) for b in blocks)
    device = GpuDevice(Environment())

    rows = []
    for segments in segment_counts:
        kernel = SegmentLzKernel(blocks, segments_per_chunk=segments)
        compressed = sum(len(blob) for tile in kernel.execute().tiles
                         for blob in refine_tile(tile))
        ratio = sum(len(block) for block in blocks) / compressed
        critical = kernel.cost().critical_path_cycles / \
            device.spec.freq_hz
        rows.append(A7Row(segments=segments, ratio=ratio,
                          ratio_loss_vs_serial=1.0 - ratio / serial_ratio,
                          kernel_critical_path_s=critical))
    return rows


# ---------------------------------------------------------------------------
# A16 — tenancy ablation: inline hit rate vs tenant-mix composition.
# ---------------------------------------------------------------------------

#: The committed mixed-locality scenario: a hot tenant whose working
#: set fits the inline cache against a cold scan that floods it.  A17,
#: the tier-1 admission floors (tests/test_goldens.py) and the
#: ``mix_emit`` micro-benchmark all read this exact mix; A16 sweeps the
#: hot tenant's weight around it.
SCENARIO_MIX = TenantMix(tenants=(
    TenantSpec(name="hot", seed=11, dedup_ratio=3.0, locality=0.95,
               working_set=64),
    TenantSpec(name="cold", seed=22, dedup_ratio=1.05, locality=0.0,
               working_set=1 << 16),
), seed=7)

@dataclass
class A16Row:
    """One mix composition's shared-vs-prioritized comparison."""

    hot_weight: float
    hot_share: float
    shared_hit_rate: float
    prioritized_hit_rate: float

    @property
    def prioritized_gain(self) -> float:
        """Aggregate-hit-rate multiple of prioritized over shared."""
        if self.shared_hit_rate == 0:
            return float("inf")
        return self.prioritized_hit_rate / self.shared_hit_rate


def a16_tenant_mix(hot_weights: Sequence[float] = (0.25, 1.0, 4.0),
                   n_chunks: int = 4096,
                   cache_entries: int = 96) -> list[A16Row]:
    """Sweep the hot tenant's traffic share; compare admission policies.

    The HPDedup claim under composition drift: however much of the
    interleaved stream the high-locality tenant contributes, a
    locality-prioritized cache beats a shared LRU on aggregate inline
    hit rate — and the edge is largest when the cold scan dominates
    (small ``hot_weight``), because that is when LRU recency evicts
    exactly the entries worth keeping.
    """
    rows = []
    for hot_weight in hot_weights:
        hot, cold = SCENARIO_MIX.tenants
        mix = replace(SCENARIO_MIX, tenants=(
            replace(hot, weight=hot_weight), cold))
        hit_rates = {}
        for policy in ("shared_lru", "prioritized"):
            config = PipelineConfig(
                tenancy_policy=policy,
                tenancy_cache_entries=cache_entries)
            report = run_tenant_mix(mix, IntegrationMode.CPU_ONLY,
                                    n_chunks, base_config=config)
            hit_rates[policy] = report.inline_hit_rate
        rows.append(A16Row(
            hot_weight=hot_weight,
            hot_share=hot_weight / (hot_weight + 1.0),
            shared_hit_rate=hit_rates["shared_lru"],
            prioritized_hit_rate=hit_rates["prioritized"]))
    return rows


# ---------------------------------------------------------------------------
# A17 — tenancy ablation: cache-contention curve (hit rate vs capacity).
# ---------------------------------------------------------------------------

@dataclass
class A17Row:
    """One inline-cache capacity point, both policies."""

    cache_entries: int
    shared_hit_rate: float
    prioritized_hit_rate: float
    recovery_fraction: float

    @property
    def prioritized_gain(self) -> float:
        """Aggregate-hit-rate multiple of prioritized over shared."""
        if self.shared_hit_rate == 0:
            return float("inf")
        return self.prioritized_hit_rate / self.shared_hit_rate


def a17_cache_contention(
        capacities: Sequence[int] = (48, 64, 96, 128, 256),
        n_chunks: int = 4096) -> list[A17Row]:
    """Shrink the inline cache under the committed mixed scenario.

    The contention story: a shared LRU degrades smoothly toward zero
    as the cold scan churns the cache, while prioritized residency
    holds the hot tenant near its working-set ceiling until capacity
    drops below that working set.  Out-of-line compaction keeps the
    *effective* dedup ratio at the oracle throughout — capacity only
    moves the inline/out-of-line split.
    """
    rows = []
    for capacity in capacities:
        hit_rates = {}
        recovery = 1.0
        for policy in ("shared_lru", "prioritized"):
            config = PipelineConfig(
                tenancy_policy=policy,
                tenancy_cache_entries=capacity)
            report = run_tenant_mix(SCENARIO_MIX,
                                    IntegrationMode.CPU_ONLY,
                                    n_chunks, base_config=config)
            hit_rates[policy] = report.inline_hit_rate
            if policy == "prioritized":
                recovery = report.recovery_fraction
        rows.append(A17Row(
            cache_entries=capacity,
            shared_hit_rate=hit_rates["shared_lru"],
            prioritized_hit_rate=hit_rates["prioritized"],
            recovery_fraction=recovery))
    return rows


# ---------------------------------------------------------------------------
# A18 — cluster ablation: shard skew and what repairing it costs.
# ---------------------------------------------------------------------------

@dataclass
class A18Row:
    """One bin->shard assignment over the same observed bin loads."""

    assignment: str
    #: Max-over-mean routed bytes per shard (1.0 = perfectly balanced).
    imbalance: float
    #: Loaded bins (and their bytes) that live on a different shard
    #: than under the static range split, and the modeled NetLink time
    #: to migrate them.
    moved_bins: int
    moved_bytes: int
    migration_s: float


def a18_cluster_skew(n_chunks: int = 4096, nodes: int = 4) -> list[A18Row]:
    """Route a dup-heavy, high-locality corpus; compare assignments.

    Such a corpus concentrates traffic in few bins, so the static
    ``range`` split is skewed.  ``balanced`` re-assigns every bin (LPT
    over the observed loads); ``rebalanced`` repairs the range table
    greedily, moving far fewer bytes for most of the benefit — the
    trade a between-epochs rebalance makes.
    """
    engine = ClusterEngine(ClusterConfig(
        nodes=nodes, chunks=n_chunks, window=64, seed=1234,
        dedup_ratio=4.0, locality=0.9))
    engine.run()
    loads = engine.router.bin_loads()
    range_table = engine.shard_map.table.copy()

    def row(assignment: str, shard_map) -> A18Row:
        moved = (shard_map.table != range_table) & (loads > 0)
        moved_bins = int(moved.sum())
        moved_bytes = int(loads[moved].sum())
        migration_s = engine.netlink.cost_s(
            moved_bytes + moved_bins * REBALANCE_ENTRY_BYTES,
            moved_bins) if moved_bins else 0.0
        return A18Row(assignment, shard_map.imbalance(loads), moved_bins,
                      moved_bytes, migration_s)

    rows = [row("range", engine.shard_map),
            row("balanced", ShardMap(nodes, assignment="balanced",
                                     loads=loads))]
    engine.shard_map.rebalance(loads)
    rows.append(row("rebalanced", engine.shard_map))
    return rows
