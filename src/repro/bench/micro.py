"""Per-layer micro-benchmarks: one table, one timing loop.

``repro bench <plane|all>`` (:data:`PLANES`: engine, dataplane, dedup,
pipeline, cluster, tenancy, workload) selects rows of
:data:`SCENARIOS` and times them on *this* host: one
warm-up call per row, then N repeats interleaved round-robin across the
selected rows, reported as ops, median seconds, IQR and ops/s.  There
is no baseline and no gate here — a rate in this table says how fast a
layer is in isolation, which is useful for ``--profile`` and for reading
a layer's cost, and for nothing else.  Whether a change made the system
faster is judged end to end: ``python3 -m e2ebench compare``.  Whether
it kept the results is judged by the pinned goldens in tier-1
(``tests/goldens.py``, ``tests/test_goldens.py``).

A scenario is ``Scenario(plane, name, unit, build)`` where
``build(quick) -> (run, ops)``: ``build`` prepares the corpus outside
the timed region, ``run()`` does ``ops`` units of work.  The corpora
are deterministic and shared with the golden tests (``build_corpus``,
``golden_config``), so a rate and a digest are always about the same
bytes.
"""

from __future__ import annotations

import cProfile
import hashlib
import io
import pstats
import random
import statistics
import time
from typing import Any, Callable, Generator, NamedTuple, Sequence

from repro.bench.experiments import SCENARIO_MIX
from repro.bench.reporting import Table
from repro.chunkbatch import ChunkBatch
from repro.cluster import ClusterConfig, ClusterEngine, ClusterRouter, ShardMap
from repro.compression.lz_common import key3_array
from repro.compression.lzss import LzssCodec
from repro.compression.postprocess import refine_tile
from repro.compression.quicklz import QuickLzCodec
from repro.core.batcher import GpuBatcher
from repro.core.calibration import run_mode
from repro.core.modes import IntegrationMode
from repro.cpu.model import SimCpu
from repro.dedup.bin_buffer import BinBuffer, FlushEvent
from repro.dedup.bins import BinTable
from repro.dedup.engine import DedupEngine, _StagedInfo
from repro.dedup.gpu_index import GpuBinIndex
from repro.dedup.hashing import fingerprint_window
from repro.dedup.index_base import decompose
from repro.dedup.replacement import RandomReplacement
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import Kernel, KernelCost
from repro.gpu.kernels.lz import SegmentLzKernel
from repro.sim import Environment, Resource
from repro.storage.ftl import Ftl, FtlSpec
from repro.tenancy import LocalityEstimator, TenantMixStream
from repro.workload.datagen import BlockContentGenerator
from repro.workload.vdbench import VdbenchStream

__all__ = ["PLANES", "SCENARIOS", "Scenario", "build_corpus",
           "golden_config", "render_micro", "run_micro"]

#: ``build(quick)`` result: the timed callable and its work count.
Built = tuple[Callable[[], Any], int]


class Scenario(NamedTuple):
    """One row of the micro-benchmark table."""

    plane: str
    name: str
    #: What ``ops`` counts (``per_s`` is this unit per second).
    unit: str
    build: Callable[[bool], Built]


# -- engine: the simulation substrate ------------------------------------------

def _event_hops(quick: bool) -> Built:
    """Timeout ping-pong: calendar/step/resume cost per event."""
    processes, hops = 200, 500

    def run() -> None:
        env = Environment()

        def hopper() -> Generator:
            for _ in range(hops):
                yield env.timeout(1e-6)

        for _ in range(processes):
            env.process(hopper())
        env.run()

    return run, processes * hops


def _resource_churn(quick: bool) -> Built:
    """Contended acquire/hold/release churn on a counted resource."""
    processes, cycles = 100, 500

    def run() -> None:
        env = Environment()
        pool = Resource(env, capacity=8, name="churn")

        def churner() -> Generator:
            for _ in range(cycles):
                with pool.request() as req:
                    yield req
                    yield env.timeout(1e-6)

        for _ in range(processes):
            env.process(churner())
        env.run()

    return run, processes * cycles


def _charge_churn(quick: bool) -> Built:
    """Contended ``SimCpu.charge``: 1024 processes on 8 threads, the
    pipeline's in-flight window (``resource_churn`` covers ``request()``)."""
    processes, charges = 1024, 50

    def run() -> None:
        env = Environment()
        cpu = SimCpu(env)

        def charger() -> Generator:
            for _ in range(charges):
                yield cpu.charge(3400.0)

        for _ in range(processes):
            env.process(charger())
        env.run()

    return run, processes * charges


class _NoopKernel(Kernel):
    """Returns its items untouched at a token fixed cost."""

    name = "noop"

    def __init__(self, items: list):
        self.items = items

    def execute(self) -> list:
        return self.items

    def cost(self) -> KernelCost:
        return KernelCost(name=self.name, threads=len(self.items),
                          lane_cycles_total=1e3, critical_path_cycles=1e3,
                          bytes_read=0.0, bytes_written=0.0)


def _batch_fanout(quick: bool) -> Built:
    """``GpuBatcher`` with a trivial kernel: submit, collect, launch and
    fan-out cost per item at 256-item batches."""
    submitters, rounds, batch = 1024, 25, 256

    def run() -> None:
        env = Environment()
        batcher = GpuBatcher(
            env, GpuDevice(env), make_kernel=_NoopKernel,
            split_results=lambda items, raw: raw,
            batch_size=batch, max_wait_s=2e-3, name="fanout")

        def submitter(item: int) -> Generator:
            for _ in range(rounds):
                yield batcher.submit(item)

        for item in range(submitters):
            env.process(submitter(item))
        env.run()
        batcher.stop()
        env.run()

    return run, submitters * rounds


def _e4(mode: IntegrationMode) -> Callable[[bool], Built]:
    """One descriptor-mode ``run_mode`` at the E4 golden size."""
    def build(quick: bool) -> Built:
        chunks = 2048 if quick else 8192
        return (lambda: run_mode(mode, chunks)), chunks
    return build


# -- dataplane: the codec loops over the golden corpus -------------------------

def build_corpus() -> list[tuple[str, bytes]]:
    """The deterministic 4 KiB mixed corpus (plus adversarial tails).

    Fixed forever: the golden stream digests in ``tests/goldens.py`` are
    digests of *encodings of these exact bytes*.  Blocks cover the codec
    edge cases — all-zero runs, period-3 repeats, natural text,
    incompressible randomness, calibrated ratio-2.0 storage blocks, a
    seam-periodic block whose repeats straddle GPU segment boundaries,
    and sub-``min_match`` tails.
    """
    blocks: list[tuple[str, bytes]] = []
    blocks.append(("zeros", b"\x00" * 4096))
    blocks.append(("period3", (b"abc" * 1366)[:4096]))
    text = b"the quick brown fox jumps over the lazy dog. "
    blocks.append(("text", (text * 92)[:4096]))
    rng = random.Random(20170905)
    blocks.append(("random", bytes(rng.randrange(256)
                                   for _ in range(4096))))
    generator = BlockContentGenerator(2.0, seed=3)
    generator.calibrate()
    for salt in range(4):
        blocks.append((f"ratio2_{salt}",
                       generator.make_block(4096, salt=salt)))
    # Every 512-byte segment identical: matches reach backward across
    # the seams of an 8-segment GPU parse.
    seam_base = bytes(rng.randrange(256) for _ in range(512))
    blocks.append(("seam512", seam_base * 8))
    blocks.append(("tail2", b"ab"))
    blocks.append(("tail1", b"\xff"))
    return blocks


def _payloads() -> list[bytes]:
    return [payload for _, payload in build_corpus()]


def _hash_array(quick: bool) -> Built:
    """Rolling 3-byte key precomputation."""
    payloads = _payloads()

    def run() -> None:
        for payload in payloads:
            key3_array(payload)

    return run, sum(max(0, len(p) - 2) for p in payloads)


def _codec(codec_type: type, decode: bool,
           ratio: float = 0.0) -> Callable[[bool], Built]:
    """Codec encode (or decode): the corpus, or ``ratio`` storage blocks."""
    def build(quick: bool) -> Built:
        codec = codec_type()
        payloads = _storage_blocks(ratio, seed=19)() if ratio else _payloads()
        nbytes = sum(len(p) for p in payloads)
        if not decode:
            return (lambda: [codec.encode(p) for p in payloads]), nbytes
        blobs = [codec.encode(p) for p in payloads]
        return (lambda: [codec.decode(b) for b in blobs]), nbytes
    return build


def _gpu_segments(quick: bool) -> Built:
    """Segment-parallel kernel + CPU tile refinement over the corpus."""
    payloads = [p for p in _payloads() if len(p) >= 512]

    def run() -> None:
        kernel = SegmentLzKernel(payloads, segments_per_chunk=8)
        for tile in kernel.execute().tiles:
            refine_tile(tile)

    return run, sum(len(p) for p in payloads)


def _gpu_segments_launch(quick: bool) -> Built:
    """Kernel only, one full 256-chunk launch of calibrated ratio-3.0
    blocks: whole search tiles, where ``gpu_segments``' nine blocks are
    a single partial one and cannot show what lockstep amortises."""
    blocks = _storage_blocks(3.0, seed=18)()
    return (lambda: SegmentLzKernel(blocks, segments_per_chunk=8).execute(),
            sum(len(block) for block in blocks))


def _gpu_refine_launch(quick: bool) -> Built:
    """Refinement only, of the launch ``gpu_segments_launch`` searches:
    four whole tiles through ``refine_tile``."""
    blocks = _storage_blocks(3.0, seed=18)()
    tiles = SegmentLzKernel(blocks, segments_per_chunk=8).execute().tiles
    return (lambda: [refine_tile(tile) for tile in tiles],
            sum(len(block) for block in blocks))


def _storage_blocks(ratio: float, seed: int) -> Callable[[], list[bytes]]:
    """Maker of 256 calibrated ``ratio`` storage blocks: the texture the
    payload workloads of e2ebench generate and encode (the golden corpus
    — zeros, period-3, text — is not)."""
    generator = BlockContentGenerator(ratio, seed=seed)
    generator.calibrate()
    return lambda: [generator.make_block(4096, salt=salt)
                    for salt in range(256)]


def _decode_gpu_containers(quick: bool) -> Built:
    """Decode of what the GPU path stores: one refined 256-chunk launch."""
    codec, blocks = LzssCodec(), _storage_blocks(3.0, seed=18)()
    launch = SegmentLzKernel(blocks, segments_per_chunk=8).execute()
    blobs = [blob for tile in launch.tiles for blob in refine_tile(tile)]
    return (lambda: [codec.decode(blob) for blob in blobs]), 256 * 4096


# -- dedup: the index structures ------------------------------------------------

def _fingerprints(count: int, salt: int) -> list[bytes]:
    """``count`` deterministic 20-byte SHA-1-shaped fingerprints."""
    return [hashlib.sha1(f"{salt}:{i}".encode()).digest()
            for i in range(count)]


def _probe_mix(present: list[bytes], absent: list[bytes]) -> list[bytes]:
    """Alternating hit/miss probes (worst case for hit-only caches)."""
    return [fp for pair in zip(present, absent) for fp in pair]


def _buffer_probe(quick: bool) -> Built:
    """Hit/miss probe mix against a staged bin buffer."""
    staged, passes = 4096, 4
    present = _fingerprints(staged, salt=1)
    buffer = BinBuffer(prefix_bytes=2, per_bin_capacity=1 << 30)
    for i, fingerprint in enumerate(present):
        buffer.add(fingerprint, i)
    probes = _probe_mix(present, _fingerprints(staged, salt=2))

    def run() -> None:
        lookup = buffer.lookup
        for _ in range(passes):
            for fingerprint in probes:
                lookup(fingerprint)

    return run, len(probes) * passes


def _tree_probe(quick: bool) -> Built:
    """Hit/miss probe mix against populated bin trees, driven the way
    ``DedupEngine.cpu_index`` drives it: one decomposition, one
    ``probe_view``."""
    entries, passes = 8192, 4
    present = _fingerprints(entries, salt=3)
    table = BinTable(prefix_bytes=2, min_degree=16)
    for i, fingerprint in enumerate(present):
        table.insert(fingerprint, i)
    probes = _probe_mix(present[:entries // 2],
                        _fingerprints(entries // 2, salt=4))

    def run() -> None:
        probe = table.probe_view
        pb = table.prefix_bytes
        for _ in range(passes):
            for fingerprint in probes:
                probe(decompose(fingerprint, pb))

    return run, len(probes) * passes


def _gpu_batch_lookup(quick: bool) -> Built:
    """Batch build + kernel execute + result record, per launch.
    ``prefix_bytes=1`` packs the batch into 256 bins so each bin group
    carries many queries — the paper's linear-scan shape."""
    stored, batch, passes = 8192, 4096, 2
    index = GpuBinIndex(prefix_bytes=1, bin_capacity=512,
                        policy=RandomReplacement(seed=11))
    for fingerprint in _fingerprints(stored, salt=5):
        index.insert(fingerprint)
    queries = _probe_mix(_fingerprints(batch // 2, salt=5),
                         _fingerprints(batch // 2, salt=6))

    def run() -> None:
        for _ in range(passes):
            kernel = index.make_kernel(queries)
            index.record_results(queries, kernel.execute())

    return run, len(queries) * passes


def _flush_install(quick: bool) -> Built:
    """Whole-bin flushes applied to the bin tree + GPU bins.  Every bin
    is flushed twice: the first pass installs into roomy GPU bins, the
    second exceeds ``bin_capacity`` and takes the eviction path."""
    events, per_event = 64, 64
    flushes = []
    for event_id in range(events):
        bin_id = (event_id * 257) % (256 ** 2)
        flushes.append(FlushEvent(bin_id=bin_id, staged=tuple(
            (hashlib.sha1(
                f"bin{bin_id}:{event_id}:{i}".encode()).digest()[2:],
             _StagedInfo(size=4096, compressed_size=2048))
            for i in range(per_event))))

    def run() -> None:
        engine = DedupEngine(
            prefix_bytes=2, btree_min_degree=16,
            gpu_index=GpuBinIndex(prefix_bytes=2, bin_capacity=64,
                                  policy=RandomReplacement(seed=13)))
        for event in flushes + flushes:
            engine._apply_flush(event)

    return run, 2 * events * per_event


# -- pipeline: the batched functional plane ------------------------------------

def _chunk_materialize(quick: bool) -> Built:
    """Descriptor-mode stream consumption through 512-chunk windows."""
    chunks = 65_536

    def run() -> None:
        stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=42)
        for _ in stream.chunks_batched(chunks, 512):
            pass

    return run, chunks


def _fingerprint_window(quick: bool) -> Built:
    """Batched SHA-1 over a dup-heavy 1024-chunk payload window, four
    passes."""
    stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=7,
                           payload=True)
    window, passes = list(stream.chunks(1024)), 4

    def run() -> None:
        for _ in range(passes):
            fingerprint_window(window)

    return run, len(window) * passes


def _destage_account(quick: bool) -> Built:
    """FTL fill to 80 % + 8x churn through ``Ftl.write_run``."""
    blocks = pages_per_block = 64
    fill = list(range(int(blocks * pages_per_block * 0.80)))
    rng = random.Random(5)
    churn = [rng.randrange(len(fill)) for _ in range(len(fill) * 8)]

    def run() -> None:
        ftl = Ftl(FtlSpec(blocks=blocks, pages_per_block=pages_per_block))
        ftl.write_run(fill)
        ftl.write_run(churn)

    return run, len(fill) + len(churn)


# -- cluster: routing and sharded ingest ---------------------------------------

def golden_config(nodes: int, executor: str = "serial",
                  **overrides) -> ClusterConfig:
    """The pinned cluster identity corpus at ``nodes`` shards (fixed
    forever: the merged-report digests in ``tests/goldens.py`` are over
    these exact windows)."""
    params = dict(nodes=nodes, executor=executor, chunks=1024, window=64,
                  seed=1234)
    params.update(overrides)
    return ClusterConfig(**params)


def _routing_windows() -> list[ChunkBatch]:
    """8192 descriptor chunks in 512-chunk windows — wide, because mask
    splitting amortizes per window, not per chunk."""
    stream = VdbenchStream(seed=1234)
    return [stream.next_batch(512) for _ in range(16)]


def _bin_ids(quick: bool) -> Built:
    """Vectorized fingerprint -> bin prefix fold over each window."""
    columns = [batch.fingerprints for batch in _routing_windows()]
    router = ClusterRouter(ShardMap(4))

    def run() -> None:
        for fingerprints in columns:
            router.bin_ids(fingerprints)

    return run, sum(len(column) for column in columns)


def _route_split(quick: bool) -> Built:
    """Mask-based splitting of each window across 4 shards."""
    batches = _routing_windows()
    shard_map = ShardMap(4)

    def run() -> None:
        router = ClusterRouter(shard_map)
        for batch in batches:
            for _ in router.split(batch):
                pass

    return run, sum(len(batch) for batch in batches)


def _ingest(nodes: int, executor: str) -> Callable[[bool], Built]:
    """One full cluster run of the golden corpus.  The serial rows show
    the sharding tax as nodes grow; ``mp`` adds process start-up and
    pipe traffic and buys wall clock back only with spare cores."""
    def build(quick: bool) -> Built:
        chunks = 1024 if quick else 4096
        config = golden_config(nodes, executor=executor, chunks=chunks)
        return (lambda: ClusterEngine(config).run()), chunks
    return build


# -- tenancy: the admission hot path -------------------------------------------

def _estimator(window: int) -> Callable[[bool], Built]:
    """Ring-sketch ``observe`` throughput; O(1) per observation, so the
    two window sizes should read about the same."""
    def build(quick: bool) -> Built:
        n = 20_000 if quick else 50_000
        stream = VdbenchStream(dedup_ratio=3.0, seed=1234, locality=0.7,
                               working_set=128)
        corpus = [chunk.fingerprint for chunk in stream.chunks(n)]

        def run() -> None:
            observe = LocalityEstimator(window).observe
            for fingerprint in corpus:
                observe(fingerprint)

        return run, n
    return build


def _mix_emit(quick: bool) -> Built:
    """Interleaved emission of the committed hot/cold tenant mix."""
    n = 10_000 if quick else 20_000

    def run() -> None:
        for _ in TenantMixStream(SCENARIO_MIX).chunks_batched(n, window=64):
            pass

    return run, n


# -- the table -----------------------------------------------------------------

SCENARIOS: tuple[Scenario, ...] = (
    Scenario("engine", "event_hops", "events", _event_hops),
    Scenario("engine", "resource_churn", "acquisitions", _resource_churn),
    Scenario("engine", "charge_churn", "charges", _charge_churn),
    Scenario("engine", "batch_fanout", "items", _batch_fanout),
    *(Scenario("engine", f"e4_{mode.value}", "chunks", _e4(mode))
      for mode in IntegrationMode.all_modes()),
    Scenario("dataplane", "hash_array", "keys", _hash_array),
    Scenario("dataplane", "encode_quicklz", "bytes",
             _codec(QuickLzCodec, decode=False)),
    Scenario("dataplane", "encode_quicklz_vdbench", "bytes",
             _codec(QuickLzCodec, decode=False, ratio=2.0)),
    Scenario("dataplane", "encode_lzss", "bytes",
             _codec(LzssCodec, decode=False)),
    Scenario("dataplane", "decode_quicklz", "bytes",
             _codec(QuickLzCodec, decode=True)),
    Scenario("dataplane", "decode_quicklz_vdbench", "bytes",
             _codec(QuickLzCodec, decode=True, ratio=2.0)),
    Scenario("dataplane", "decode_lzss", "bytes",
             _codec(LzssCodec, decode=True)),
    Scenario("dataplane", "decode_lzss_gpu", "bytes",
             _decode_gpu_containers),
    Scenario("dataplane", "gpu_segments", "bytes", _gpu_segments),
    Scenario("dataplane", "gpu_segments_launch", "bytes",
             _gpu_segments_launch),
    Scenario("dataplane", "gpu_refine_launch", "bytes",
             _gpu_refine_launch),
    Scenario("dedup", "buffer_probe", "probes", _buffer_probe),
    Scenario("dedup", "tree_probe", "probes", _tree_probe),
    Scenario("dedup", "gpu_batch_lookup", "queries", _gpu_batch_lookup),
    Scenario("dedup", "flush_install", "entries", _flush_install),
    Scenario("pipeline", "chunk_materialize", "chunks", _chunk_materialize),
    Scenario("pipeline", "fingerprint_window", "chunks",
             _fingerprint_window),
    Scenario("pipeline", "destage_account", "pages", _destage_account),
    Scenario("cluster", "bin_ids", "chunks", _bin_ids),
    Scenario("cluster", "route_split", "chunks", _route_split),
    *(Scenario("cluster", f"ingest_serial_{nodes}", "chunks",
               _ingest(nodes, "serial")) for nodes in (1, 2, 4)),
    Scenario("cluster", "ingest_mp_4", "chunks", _ingest(4, "mp")),
    Scenario("tenancy", "estimator_w64", "observations", _estimator(64)),
    Scenario("tenancy", "estimator_w1024", "observations",
             _estimator(1024)),
    Scenario("tenancy", "mix_emit", "chunks", _mix_emit),
    *(Scenario("workload", f"make_block_r{ratio}", "blocks",
               lambda quick, r=ratio: (_storage_blocks(r, seed=19), 256))
      for ratio in (2, 3)),
)

#: Plane names in table order (``repro bench <plane>`` / ``bench list``).
PLANES: tuple[str, ...] = tuple(dict.fromkeys(s.plane for s in SCENARIOS))


# -- the driver ----------------------------------------------------------------

def run_micro(planes: Sequence[str], quick: bool = False,
              profile: bool = False) -> dict:
    """Time every scenario of ``planes``; return ``{quick, repeats,
    rows}`` (plus ``profile_top`` under ``profile``).

    Rows are interleaved round-robin so a load spike on a shared host
    lands on one repeat of every row instead of on every repeat of one
    row; the IQR column shows what is left.  ``profile`` wraps the
    timed loop (not corpus building or warm-up) in one cProfile; rates
    measured under it are inflated and only the table is meaningful.
    """
    repeats = 5 if quick else 9
    built = [(scenario, *scenario.build(quick))
             for scenario in SCENARIOS if scenario.plane in planes]
    for _scenario, run, _ops in built:
        run()
    samples: list[list[float]] = [[] for _ in built]
    profiler = cProfile.Profile() if profile else None
    if profiler is not None:
        profiler.enable()
    for _ in range(repeats):
        for index, (_scenario, run, _ops) in enumerate(built):
            started = time.perf_counter()
            run()
            samples[index].append(time.perf_counter() - started)
    if profiler is not None:
        profiler.disable()

    rows = []
    for (scenario, _run, ops), seconds in zip(built, samples):
        median = statistics.median(seconds)
        q1, _q2, q3 = statistics.quantiles(seconds, n=4)
        rows.append({"plane": scenario.plane, "scenario": scenario.name,
                     "unit": scenario.unit, "ops": ops,
                     "median_s": median, "iqr_s": q3 - q1,
                     "per_s": ops / median})
    results: dict[str, Any] = {"quick": quick, "repeats": repeats,
                               "rows": rows}
    if profiler is not None:
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream) \
            .sort_stats("cumulative").print_stats(25)
        results["profile_top"] = stream.getvalue()
    return results


def render_micro(results: dict) -> str:
    """The rows of :func:`run_micro` as one aligned table."""
    table = Table(f"micro-benchmarks on this host (median of "
                  f"{results['repeats']}, interleaved)",
                  ["plane", "scenario", "ops", "median ms", "iqr ms",
                   "rate"])
    for row in results["rows"]:
        table.add_row(row["plane"], row["scenario"], f"{row['ops']:,}",
                      f"{row['median_s'] * 1e3:.2f}",
                      f"{row['iqr_s'] * 1e3:.2f}",
                      f"{row['per_s']:,.0f} {row['unit']}/s")
    lines = [table.render()]
    if "profile_top" in results:
        lines += ["", results["profile_top"]]
    return "\n".join(lines)
