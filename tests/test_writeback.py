"""The destage stage: every submitted batch reaches the SSD exactly once."""

import pytest

from repro.core.calibration import run_stream
from repro.core.config import PipelineConfig
from repro.core.modes import IntegrationMode
from repro.errors import BlockRangeError
from repro.sim import Environment
from repro.storage.ssd import SsdModel
from repro.storage.writeback import WriteBack
from repro.tenancy import TenantMix, TenantMixStream, TenantSpec
from repro.workload import VdbenchStream

CHUNKS = 640
#: Small bins, so bins both flush during the run and remain for the drain.
SMALL_BINS = dict(window=128, gpu_index_batch=32, gpu_comp_batch=32,
                  bin_buffer_capacity=8, bin_buffer_total=128)


@pytest.mark.parametrize("nbytes", [0, -4096])
def test_non_positive_submit_is_a_typed_error(nbytes):
    env = Environment()
    writeback = WriteBack(env, SsdModel(env))
    with pytest.raises(BlockRangeError):
        writeback.submit(nbytes, sequential=True)
    env.run()
    assert (writeback.batches, writeback.bytes) == (0, 0)
    assert writeback.ssd.requests_completed == 0


def _vdbench(mode, **overrides):
    config = PipelineConfig(mode=mode, **SMALL_BINS, **overrides)
    stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=21)
    return run_stream(stream, CHUNKS, config)


def _tenant_mix(policy):
    config = PipelineConfig(mode=IntegrationMode.GPU_COMP, **SMALL_BINS,
                            tenancy_policy=policy, tenancy_cache_entries=48)
    mix = TenantMix(seed=21, tenants=(
        TenantSpec(name="hot", seed=22, dedup_ratio=3.0, locality=0.95,
                   working_set=64),
        TenantSpec(name="cold", seed=23, dedup_ratio=1.05, locality=0.0,
                   working_set=65536)))
    stream = TenantMixStream(mix)
    return run_stream(stream, CHUNKS, config)


RUNS = {mode.value: (lambda mode=mode: _vdbench(mode))
        for mode in IntegrationMode.all_modes()}
RUNS["dedup_off"] = lambda: _vdbench(IntegrationMode.CPU_ONLY,
                                     enable_dedup=False)
RUNS["shared_lru"] = lambda: _tenant_mix("shared_lru")
RUNS["prioritized"] = lambda: _tenant_mix("prioritized")


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_destaged_batch_is_written_once(run):
    pipeline, report = RUNS[run]()
    writeback = pipeline.writeback
    ssd = writeback.ssd
    assert writeback.batches == ssd.requests_completed > 0
    assert writeback.bytes == ssd.host_bytes_written
    assert (report.destage_batches, report.destage_bytes) == \
        (writeback.batches, writeback.bytes)
    # Against what the run stored, so a batch the drain drops or writes
    # twice fails too.
    if pipeline.tenancy is not None:
        assert writeback.batches == pipeline.tenancy.counters()["stored"]
    elif pipeline.dedup is None:
        assert writeback.batches == CHUNKS
    else:
        # Batches past the run's own flushes came from the drain.
        assert writeback.batches > report.counters["flushes"] > 0
        assert writeback.bytes == pipeline.dedup.metadata.physical_bytes
