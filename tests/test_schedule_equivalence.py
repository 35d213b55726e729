"""Same schedule from fewer calendar entries.

The production pipeline runs a CPU charge as a booking on the threads'
channel ledger plus one timeout, a GPU batch as one dispatcher wake-up
plus one fan-out entry, and a destage write as a booking on the SSD's
channel ledger, with no entry at all.  ``tests/reference_paths.py``
keeps the event-per-step formulations of all three (inbox ``Store`` +
``AnyOf`` + per-get timeout, request-then-timeout charge on a thread
``Resource``, one process per SSD request on a channel ``Resource``).
Both wirings must admit and complete every chunk at the same simulated
instants and produce the same report — the removed entries were hops
nobody listened to, not simulated work — and the same spans: in the
same order, except the SSD-write and destage spans, which the ledger
records at booking and the oracle at completion, so they are compared
as sorted multisets.  A hypothesis property holds the ledger to the
oracle booking by booking: SSD reads and writes and CPU charge chains
mixed, saturation probed at every charge.

Also here: busy time that depends on the level curve alone, and the
end-of-run sanitizer's view of a parked batcher.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.calibration import run_mode
from repro.core.config import PipelineConfig
from repro.core.modes import IntegrationMode
from repro.errors import SanitizerError
from repro.gpu import GpuDevice
from repro.obs import SimTracer
from repro.obs.stages import STAGE_CHUNK, STAGE_DESTAGE, STAGE_SSD_WRITE
from repro.cpu.model import CpuSpec, SimCpu
from repro.sim import Environment
from repro.tenancy import TenantMix, TenantSpec
from repro.tenancy.runner import run_tenant_mix
from repro.storage.ssd import SsdModel
from tests.reference_paths import (LevelResource, ReferenceCharge,
                                   reference_ssd_channels,
                                   reference_ssd_serve, reference_wiring)
from tests.test_pipeline import _make_batcher

CHUNKS = 640
SEEDS = (11, 12, 13, 14, 15)
#: Small window and batches, so 640 chunks cycle every queue many times.
BASE = dict(window=128, gpu_index_batch=32, gpu_comp_batch=32,
            bin_buffer_capacity=8, bin_buffer_total=128)
VARIANTS = {
    "default": {},
    "global_lock": {"index_locking": "global"},
    "paced": {"arrival_rate_iops": 90_000.0},
    "deadlines": {"gpu_batch_wait_s": 2e-5},
}
#: Spans recorded when a write is booked, not when it completes.
BOOKED_STAGES = (STAGE_DESTAGE, STAGE_SSD_WRITE)
WORKLOADS = [mode.value for mode in IntegrationMode.all_modes()] \
    + ["tenant_mix"]


def _run(workload: str, variant: str, seed: int):
    """(per-chunk (seq, admitted, completed), report dict, span list,
    sorted SSD-write and destage spans)."""
    config = PipelineConfig(**BASE, **VARIANTS[variant])
    tracer = SimTracer()
    if workload == "tenant_mix":
        mix = TenantMix(seed=seed, tenants=(
            TenantSpec(name="hot", seed=seed + 1, dedup_ratio=3.0,
                       locality=0.95, working_set=64),
            TenantSpec(name="cold", seed=seed + 2, dedup_ratio=1.05,
                       locality=0.0, working_set=65536)))
        report = run_tenant_mix(
            mix, IntegrationMode.GPU_COMP, CHUNKS,
            base_config=dataclasses.replace(
                config, tenancy_policy="prioritized",
                tenancy_cache_entries=48),
            tracer=tracer).as_dict()
    else:
        report = dataclasses.asdict(run_mode(
            IntegrationMode(workload), CHUNKS, base_config=config,
            seed=seed, tracer=tracer))
    chunks = [(s.chunk_id, s.start, s.end) for s in tracer.spans
              if s.stage == STAGE_CHUNK]
    spans = [(s.stage, s.chunk_id, s.start, s.end, s.queue_wait,
              s.resource, s.attrs) for s in tracer.spans]
    # The SSD records a write's spans when it books it, the oracle when
    # the write completes: the same spans, in another order.
    booked = sorted((span for span in spans if span[0] in BOOKED_STAGES),
                    key=repr)
    return chunks, report, \
        [span for span in spans if span[0] not in BOOKED_STAGES], booked


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_and_production_wiring_agree(workload, variant,
                                               monkeypatch):
    for seed in SEEDS:
        production = _run(workload, variant, seed)
        with reference_wiring(monkeypatch):
            reference = _run(workload, variant, seed)
        chunks = production[0]
        assert len(chunks) == CHUNKS
        assert chunks == reference[0], (workload, variant, seed)
        assert production[1] == reference[1], (workload, variant, seed)
        assert production[2] == reference[2], (workload, variant, seed)
        assert production[3] == reference[3], (workload, variant, seed)


def test_deadline_variant_launches_partial_batches():
    """The `deadlines` variant is not vacuous: windows do expire."""
    kernels = {variant: _run("gpu_dedup", variant, SEEDS[0])[1]["gpu_kernels"]
               for variant in ("default", "deadlines")}
    assert kernels["deadlines"] > 2 * kernels["default"]


def test_batcher_counts_wakeups_and_deadline_fires():
    env = Environment()
    gpu = GpuDevice(env)
    batcher = _make_batcher(env, gpu, batch_size=8, max_wait=1e-4)

    def submitter(at):
        yield env.timeout(at)
        yield batcher.submit(1)

    for i in range(20):
        env.process(submitter(i * 3e-5))
    env.run()
    assert batcher.items_processed == 20
    assert batcher.deadline_fires >= 2
    assert batcher.wakeups <= 2 * batcher.batches_launched + 1


# -- busy time: the level curve, however it is split ------------------------

_TICK = 0.1  # not exactly representable: the float paths must agree too


@settings(max_examples=120, deadline=None)
@given(script=st.lists(
    st.tuples(st.integers(0, 6),     # arrival gap, in ticks
              st.integers(0, 9),     # first part of the keep, in ticks
              st.integers(0, 9)),    # second part
    min_size=1, max_size=30))
def test_busy_time_depends_only_on_the_level_curve(script):
    """One slot kept for two back-to-back timeouts, or released and
    claimed again between them: the second wiring adds a zero-length
    -1/+1 dip at the seam (and a zero-length spike per empty keep), and
    the busy time must come out bit-identical."""

    def play(split: bool) -> float:
        env = Environment()
        # Never full, so no arrival ever queues and both curves agree.
        pool = LevelResource(env, capacity=len(script), name="pool")

        def holder(first, second):
            if split:
                for keep in (first, second):
                    with pool.request() as req:
                        yield req
                        yield env.timeout(keep)
            else:
                with pool.request() as req:
                    yield req
                    yield env.timeout(first)
                    yield env.timeout(second)

        def arrivals():
            for gap, first, second in script:
                yield env.timeout(gap * _TICK)
                env.process(holder(first * _TICK, second * _TICK))

        env.process(arrivals())
        env.run()
        env.finish_check()
        return pool.monitor.busy_time()

    assert play(split=True) == play(split=False)


# -- the channel ledger vs one request and one timeout per booking ----------

_SSD_BYTES = st.one_of(st.sampled_from((1, 4096, 4097, 65536)),
                       st.integers(1, 1 << 20))
_SSD_REQUEST = st.tuples(
    st.just("ssd"),
    st.sampled_from((0, 0, 0, 1, 2, 5, 40)),            # gap, in ticks
    st.one_of(  # (write, bytes, sequential): only writes draw sequential
        st.tuples(st.just(True), _SSD_BYTES, st.booleans()),
        st.tuples(st.just(False), _SSD_BYTES, st.just(False))))
#: A chain of back-to-back charges by one process; equal and zero
#: cycle counts are common, so charges end at repeated instants.
_CPU_CHAIN = st.tuples(
    st.just("cpu"),
    st.sampled_from((0, 0, 0, 1, 2, 5, 40)),            # gap, in ticks
    st.lists(st.sampled_from((0, 0, 1.7e4, 1.7e4, 3.4e4, 1e5)),
             min_size=1, max_size=4))                   # cycles
#: Lengths drawn uniformly up to 300, so long scripts are common.
_LEDGER_SCRIPT = st.integers(1, 300).flatmap(
    lambda n: st.lists(st.one_of(_SSD_REQUEST, _CPU_CHAIN),
                       min_size=n, max_size=n))
_SSD_TICK = 1.7e-5  # a fraction of a page time, not exactly representable


def _ledger_play(script, threads: int, oracle: bool):
    """Completion instant per SSD request and per CPU charge, the
    saturation probes, the SSD and the CPU.

    Every arrival is a process whose timeout is made at time 0, so
    arrivals come before the completions of an instant on both
    wirings; a charge chain probes ``is_saturated`` right after each
    charge is made and as soon as it has run."""
    env = Environment()
    ssd = SsdModel(env)
    cpu = SimCpu(env, CpuSpec(name="probe", cores=threads, threads=threads,
                              freq_hz=1e9))
    if oracle:
        # Made with the devices, so the monitors start their clocks
        # together.
        reference_ssd_channels(ssd)
        pool = LevelResource(env, capacity=threads, name="cpu-threads")

        def charge(cycles):
            cpu.cycles_charged += cycles
            return ReferenceCharge(pool, cycles / cpu.spec.thread_hz)

        def saturated():
            return len(pool.users) == threads

        utilization = pool.monitor.utilization
    else:
        charge, saturated = cpu.charge, cpu.is_saturated
        utilization = cpu.utilization
    done: dict = {}
    probes: list = []

    def probe(index, step, when):
        probes.append((index, step, when, env.now, saturated()))

    def served(index, request):
        yield from reference_ssd_serve(ssd, *request)
        done[index] = env.now

    def ssd_arrival(index, at, request):
        yield env.timeout(at)
        write, size, sequential = request
        if oracle:
            env.process(served(index, request))
        elif write:
            done[index] = ssd.write(size, sequential)
        else:
            yield ssd.read(size)
            done[index] = env.now

    def cpu_arrival(index, at, chain):
        yield env.timeout(at)
        for step, cycles in enumerate(chain):
            charged = charge(cycles)
            probe(index, step, "booked")
            yield charged
            done[index, step] = env.now
            probe(index, step, "ran")

    at = _SSD_TICK  # so there is a "before" to measure
    for index, (device, gap, item) in enumerate(script):
        at += gap * _SSD_TICK
        if device == "ssd":
            env.process(ssd_arrival(index, at, item))
        else:
            env.process(cpu_arrival(index, at, item))
    env.run()
    env.finish_check()
    return done, probes, ssd, cpu, utilization


@settings(max_examples=20, deadline=None)
@given(script=_LEDGER_SCRIPT, threads=st.sampled_from((1, 2, 3, 8)))
@example(  # two equal charges end together; a chain books on the tie
    script=[("cpu", 0, [1.7e4, 0.0]), ("cpu", 0, [1.7e4, 1.7e4]),
            ("cpu", 0, [1.7e4])], threads=2)
@example(  # empty charges: a chain books on a thread whose charge ends
    # now but has not been processed yet, while its own thread idles
    script=[("cpu", 0, [1.7e4, 0]), ("cpu", 1, [0, 0])], threads=2)
def test_ledger_is_the_fifo_schedule(script, threads):
    """Every SSD request and CPU charge ends at the oracle's float
    instant, the counters agree, so does every saturation probe, and so
    does utilisation before, inside and after the busy period: the
    bookings' exact sum is the level curve's."""
    done, probes, ssd, cpu, cpu_util = _ledger_play(script, threads,
                                                    oracle=False)
    want, want_probes, oracle, oracle_cpu, oracle_cpu_util = \
        _ledger_play(script, threads, oracle=True)
    assert done == want
    assert probes == want_probes
    counters = [(s.requests_completed, s.host_bytes_written,
                 s.host_bytes_read, s.nand_bytes_written)
                for s in (ssd, oracle)]
    assert counters[0] == counters[1]
    assert cpu.cycles_charged == oracle_cpu.cycles_charged
    assert ssd.requests_completed == sum(
        1 for device, _gap, _item in script if device == "ssd")
    last = max(done.values())
    channels = reference_ssd_channels(oracle).monitor
    for until in (_SSD_TICK / 2, last / 2, last, 2 * last):
        assert ssd.utilization(until) == channels.utilization(until)
        assert ssd.utilization(until) == oracle.utilization(until)
        assert cpu_util(until) == oracle_cpu_util(until)


# -- the sanitizer still sees what the new primitives can leak ---------------


def test_finish_check_names_a_parked_batcher():
    env = Environment()
    batcher = _make_batcher(env, GpuDevice(env), batch_size=4)
    env.run()
    with pytest.raises(SanitizerError, match="batcher `echo`.*parked"):
        env.finish_check()
    batcher.stop()
    env.run()
    env.finish_check()
