"""Same schedule from fewer calendar entries.

The production pipeline runs a CPU charge as one ``Resource.hold``, a
GPU batch as one dispatcher wake-up plus one fan-out entry, and a
destage write as one channel hold.  ``tests/reference_paths.py`` keeps
the event-per-step formulations of all three (inbox ``Store`` +
``AnyOf`` + per-get timeout, request-then-timeout charge, one process
per SSD write).  Both wirings must admit and complete every chunk at
the same simulated instants and produce the same report — the removed
entries were hops nobody listened to, not simulated work.

Also here: ``Resource.hold`` against the ``request()`` + ``timeout()``
script it replaces (hypothesis), and the end-of-run sanitizer's view of
a leaked hold and a parked batcher.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.calibration import run_mode
from repro.core.config import PipelineConfig
from repro.core.modes import IntegrationMode
from repro.errors import SanitizerError
from repro.gpu import GpuDevice
from repro.obs import SimTracer
from repro.obs.stages import STAGE_CHUNK
from repro.sim import Environment, Resource
from repro.tenancy import TenantMix, TenantSpec
from repro.tenancy.runner import run_tenant_mix
from tests.reference_paths import reference_wiring
from tests.test_pipeline import _make_batcher

CHUNKS = 640
SEEDS = (11, 12, 13, 14, 15)
#: Small window and batches, so 640 chunks cycle every queue many times.
BASE = dict(window=128, gpu_index_batch=32, gpu_comp_batch=32,
            bin_buffer_capacity=8, bin_buffer_total=128)
VARIANTS = {
    "default": {},
    "global_lock": {"index_locking": "global"},
    "priority_queue": {"gpu_queue_priority": True},
    "paced": {"arrival_rate_iops": 90_000.0},
    "deadlines": {"gpu_batch_wait_s": 2e-5},
}
WORKLOADS = [mode.value for mode in IntegrationMode.all_modes()] \
    + ["tenant_mix"]


def _run(workload: str, variant: str, seed: int):
    """(per-chunk (seq, admitted, completed), report dict, span list)."""
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
            base_config=config.with_overrides(
                tenancy_policy="prioritized", tenancy_cache_entries=48),
            tracer=tracer).as_dict()
    else:
        report = dataclasses.asdict(run_mode(
            IntegrationMode(workload), CHUNKS, base_config=config,
            seed=seed, tracer=tracer))
    chunks = [(s.chunk_id, s.start, s.end) for s in tracer.spans
              if s.stage == STAGE_CHUNK]
    spans = [(s.stage, s.chunk_id, s.start, s.end, s.queue_wait,
              s.resource, s.attrs) for s in tracer.spans]
    return chunks, report, spans


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
    """Grant time per arrival, and busy time, of one arrival script."""
    env = Environment()
    pool = Resource(env, capacity=capacity, name="pool")
    granted: dict = {}

    def by_request(index, keep):
        with pool.request() as req:
            yield req
            granted[index] = env.now
            yield env.timeout(keep)

    def by_hold(index, keep):
        hold = pool.hold(keep)
        yield hold
        granted[index] = hold.granted_at

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
    return granted, pool.monitor.busy_time()


@settings(max_examples=120, deadline=None)
@given(capacity=st.integers(1, 8), script=_SCRIPT)
def test_hold_is_request_plus_timeout(capacity, script):
    with_holds = _play(capacity, script, use_hold=True)
    all_requests = _play(capacity, script, use_hold=False)
    assert with_holds == all_requests
    # Strict arrival order: a later arrival is never granted earlier.
    ordered = [with_holds[0][i] for i in range(len(script))]
    assert ordered == sorted(ordered)


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
