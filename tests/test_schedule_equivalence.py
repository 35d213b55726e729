"""Same schedule from fewer calendar entries.

The production pipeline runs a CPU charge as one ``Resource.hold``, a
GPU batch as one dispatcher wake-up plus one fan-out entry, and a
destage write as a booking on the SSD's channel ledger, with no entry
at all.  ``tests/reference_paths.py`` keeps the event-per-step
formulations of all three (inbox ``Store`` + ``AnyOf`` + per-get
timeout, request-then-timeout charge, one process per SSD request on
a channel ``Resource``).  Both wirings must admit and complete every
chunk at the same simulated instants and produce the same report — the
removed entries were hops nobody listened to, not simulated work — and
the same spans: in the same order, except the SSD-write and destage
spans, which the ledger records at booking and the oracle at
completion, so they are compared as sorted multisets.  A hypothesis
property holds the ledger to the oracle request by request, reads and
writes mixed on one device.

Also here: ``Resource.hold`` against the ``request()`` + ``timeout()``
script it replaces (hypothesis), busy time that depends on the level
curve alone, and the end-of-run sanitizer's view of a leaked hold and a
parked batcher.
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
from repro.sim import Environment, Resource
from repro.tenancy import TenantMix, TenantSpec
from repro.tenancy.runner import run_tenant_mix
from repro.storage.block import BlockRequest, RequestKind
from repro.storage.ssd import SsdModel
from tests.reference_paths import (reference_ssd_channels,
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
    env.run(until=0.1)
    assert batcher.items_processed == 20
    assert batcher.deadline_fires >= 2
    assert batcher.wakeups <= 2 * batcher.batches_launched + 1


# -- Resource.hold vs request() + timeout() ---------------------------------

_SCRIPT = st.lists(
    st.tuples(st.sampled_from(("hold", "request")),
              st.integers(0, 6),      # arrival gap, in ticks
              st.integers(0, 9)),     # how long the slot is kept, in ticks
    min_size=1, max_size=40)
_TICK = 0.1  # not exactly representable: the float paths must agree too


def _play(capacity: int, script, use_hold: bool):
    """Release instant per arrival (its grant plus its keep, the same
    float sum on both paths), busy time, and the grant instant of each
    arrival served by ``request()``, of one arrival script."""
    env = Environment()
    pool = Resource(env, capacity=capacity, name="pool")
    released: dict = {}
    granted: dict = {}

    def by_request(index, keep):
        with pool.request() as req:
            yield req
            granted[index] = env.now
            yield env.timeout(keep)
            released[index] = env.now

    def by_hold(index, keep):
        yield pool.hold(keep)
        released[index] = env.now

    def arrivals():
        for index, (kind, gap, keep) in enumerate(script):
            yield env.timeout(gap * _TICK)
            if kind == "hold" and use_hold:
                env.start(by_hold(index, keep * _TICK))
            else:
                env.start(by_request(index, keep * _TICK))

    env.process(arrivals())
    env.run()
    env.finish_check()
    return released, pool.monitor.busy_time(), granted


@settings(max_examples=120, deadline=None)
@given(capacity=st.integers(1, 8), script=_SCRIPT)
# Tie case: hold 0 expires on the float instant hold 1 arrives.  With
# holds the monitor sees -1 then +1 there; with requests, a handoff and
# no change.  Both orders are legitimate, and the area must not care.
@example(capacity=1, script=[("hold", 4, 3), ("hold", 3, 1), ("hold", 0, 9)])
def test_hold_is_request_plus_timeout(capacity, script):
    with_holds = _play(capacity, script, use_hold=True)
    all_requests = _play(capacity, script, use_hold=False)
    # Same keep per arrival, same release instant: the same grant.
    assert with_holds[:2] == all_requests[:2]
    # Strict arrival order: a later arrival is never granted earlier.
    ordered = [all_requests[2][i] for i in range(len(script))]
    assert ordered == sorted(ordered)


@settings(max_examples=120, deadline=None)
@given(script=st.lists(
    st.tuples(st.integers(0, 6),     # arrival gap, in ticks
              st.integers(0, 9),     # first part of the keep, in ticks
              st.integers(0, 9)),    # second part
    min_size=1, max_size=30))
def test_busy_time_depends_only_on_the_level_curve(script):
    """One slot kept for two back-to-back timeouts, or taken by two
    back-to-back holds: the second wiring adds a zero-length -1/+1 dip
    at the seam (and a zero-length spike per empty hold), and the
    busy time must come out bit-identical."""

    def play(split: bool) -> float:
        env = Environment()
        # Never full, so no arrival ever queues and both curves agree.
        pool = Resource(env, capacity=len(script), name="pool")

        def holder(first, second):
            if split:
                yield pool.hold(first)
                yield pool.hold(second)
            else:
                with pool.request() as req:
                    yield req
                    yield env.timeout(first)
                    yield env.timeout(second)

        def arrivals():
            for gap, first, second in script:
                yield env.timeout(gap * _TICK)
                env.start(holder(first * _TICK, second * _TICK))

        env.process(arrivals())
        env.run()
        env.finish_check()
        return pool.monitor.busy_time()

    assert play(split=True) == play(split=False)


# -- the SSD's channel ledger vs one process per request --------------------

_SSD_REQUEST = st.tuples(
    st.sampled_from((0, 0, 0, 1, 2, 5, 40)),            # gap, in ticks
    st.sampled_from(RequestKind),
    st.one_of(st.sampled_from((1, 4096, 4097, 65536)),
              st.integers(1, 1 << 20)),                 # bytes
    st.booleans())                                      # sequential
#: Lengths drawn uniformly up to 300, so long scripts are common.
_SSD_SCRIPT = st.integers(1, 300).flatmap(
    lambda n: st.lists(_SSD_REQUEST, min_size=n, max_size=n))
_SSD_TICK = 1.7e-5  # a fraction of a page time, not exactly representable


def _ssd_play(script, oracle: bool):
    """Completion instant per request, and the SSD."""
    env = Environment()
    ssd = SsdModel(env)
    if oracle:
        # Made with the SSD, so both monitors start their clocks together.
        reference_ssd_channels(ssd)
    done: dict = {}

    def served(index, request):
        yield from reference_ssd_serve(ssd, request)
        done[index] = env.now

    def arrivals():
        yield env.timeout(_SSD_TICK)  # so there is a "before" to measure
        for index, (gap, kind, size, sequential) in enumerate(script):
            if gap:
                yield env.timeout(gap * _SSD_TICK)
            request = BlockRequest(kind, 0, size, sequential=sequential)
            if oracle:
                env.process(served(index, request))
            elif kind is RequestKind.WRITE:
                done[index] = ssd.write(request)
            else:
                ssd.read(request).callbacks.append(
                    lambda _read, index=index: done.__setitem__(
                        index, env.now))

    env.process(arrivals())
    env.run()
    env.finish_check()
    return done, ssd


@settings(max_examples=20, deadline=None)
@given(script=_SSD_SCRIPT)
def test_ssd_ledger_is_the_fifo_channel_schedule(script):
    """Every request ends at the oracle's float instant, the counters
    agree, and so does utilisation before, inside and after the busy
    period: the bookings' exact sum is the channel level curve's."""
    done, ssd = _ssd_play(script, oracle=False)
    want, oracle = _ssd_play(script, oracle=True)
    assert done == want
    counters = [(s.requests_completed, s.host_bytes_written,
                 s.host_bytes_read, s.nand_bytes_written)
                for s in (ssd, oracle)]
    assert counters[0] == counters[1]
    assert ssd.requests_completed == len(script)
    last = max(done.values())
    channels = reference_ssd_channels(oracle).monitor
    for until in (_SSD_TICK / 2, last / 2, last, 2 * last):
        assert ssd.utilization(until) == channels.utilization(until)
        assert ssd.utilization(until) == oracle.utilization(until)


# -- the sanitizer still sees what the new primitives can leak ---------------


def test_finish_check_names_an_unexpired_and_a_waiting_hold():
    env = Environment()
    pool = Resource(env, capacity=1, name="pool")
    pool.hold(5.0)
    pool.hold(5.0)
    env.run(until=1.0)  # horizon-limited: one hold granted, one queued
    with pytest.raises(SanitizerError) as err:
        env.finish_check()
    message = str(err.value)
    assert "pool`: 1 slot(s) still held (1 by unexpired hold()s)" in message
    assert "pool`: 1 request(s) still waiting" in message


def test_finish_check_names_a_parked_batcher():
    env = Environment()
    batcher = _make_batcher(env, GpuDevice(env), batch_size=4)
    env.run()
    with pytest.raises(SanitizerError, match="batcher `echo`.*parked"):
        env.finish_check()
    batcher.stop()
    env.run()
    env.finish_check()
