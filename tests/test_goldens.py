"""Every pinned golden, asserted unconditionally (tier-1).

``tests/goldens.py`` holds five tables captured before the fast paths
they guard; each is load-bearing here or in
``test_pipeline_identity.py`` — corrupt one entry of any table and a
test below (or ``test_golden_report_digests_all_modes``) fails.  The
tenancy floors at the bottom are the one non-digest pin: the policy
result the tenancy plane exists for, on the committed mix.
"""

import dataclasses
import hashlib

import pytest

from tests.goldens import (
    GOLDEN_A7_FIELDS,
    GOLDEN_E4_CHUNKS,
    GOLDEN_E4_FIELDS,
    GOLDEN_MERGED_SHA256,
    GOLDEN_REPORT_CHUNKS,
    GOLDEN_REPORT_SHA256,
    GOLDEN_STREAM_DIGESTS,
)
from tests.reference_paths import report_digest

from repro.bench.experiments import SCENARIO_MIX, a7_segment_sweep
from repro.bench.micro import build_corpus, golden_config
from repro.cluster import ClusterEngine
from repro.compression.lzss import LzssCodec
from repro.compression.postprocess import refine_to_container
from repro.compression.quicklz import QuickLzCodec
from repro.core import IntegrationMode, PipelineConfig
from repro.core.calibration import run_mode
from repro.gpu.kernels.lz import SegmentLzKernel
from repro.tenancy import TenantMix, TenantSpec
from repro.tenancy.runner import run_tenant_mix


def _gpu8(payload: bytes) -> bytes:
    (outputs,) = SegmentLzKernel([payload], segments_per_chunk=8).execute()
    return refine_to_container(payload, outputs)


#: Producer name -> payload -> encoded stream.
PRODUCERS = {
    "quicklz": QuickLzCodec().encode,
    "lzss": LzssCodec().encode,
    "gpu8": _gpu8,
}


def test_stream_digests_every_block_every_producer():
    """11 corpus blocks x 3 producers, byte-identical streams."""
    observed = {
        name: {producer: hashlib.sha256(encode(payload)).hexdigest()
               for producer, encode in PRODUCERS.items()}
        for name, payload in build_corpus()}
    assert observed == GOLDEN_STREAM_DIGESTS


def test_a7_segment_sweep_fields():
    observed = {row.segments: (row.ratio, row.ratio_loss_vs_serial)
                for row in a7_segment_sweep()}
    assert observed == GOLDEN_A7_FIELDS


@pytest.mark.parametrize("mode", IntegrationMode.all_modes(),
                         ids=lambda mode: mode.value)
def test_e4_report_fields(mode):
    """Full-size E4: exact report fields per integration mode."""
    report = dataclasses.asdict(run_mode(mode, GOLDEN_E4_CHUNKS))
    golden = GOLDEN_E4_FIELDS[mode.value]
    assert {field: report[field] for field in golden} == golden


def test_cluster_merged_digests_and_aggregate_oracle():
    """1/2/4-node merged reports: pinned digests, and every node
    count's ``aggregate`` section equals the 1-node oracle's."""
    results = {nodes: ClusterEngine(golden_config(nodes)).run()
               for nodes in sorted(GOLDEN_MERGED_SHA256)}
    assert {nodes: result.digest()
            for nodes, result in results.items()} == GOLDEN_MERGED_SHA256
    oracle = results[1].merged["aggregate"]
    for result in results.values():
        assert result.merged["aggregate"] == oracle


def test_one_tenant_mix_reproduces_report_digests():
    """The tenancy plane is invisible at one tenant: the pinned
    single-stream digests, through ``run_tenant_mix``."""
    mix = TenantMix(tenants=(TenantSpec(name="solo", seed=1234),), seed=99)
    observed = {
        mode.value: report_digest(
            run_tenant_mix(mix, mode, GOLDEN_REPORT_CHUNKS).pipeline)
        for mode in IntegrationMode.all_modes()}
    assert observed == GOLDEN_REPORT_SHA256


#: Inline-hit-rate edge prioritized admission must hold over the shared
#: LRU on the committed mix (cache 96, 8192 chunks), and the floor on
#: oracle-dedup recovery after compaction.
REQUIRED_HIT_GAIN = 1.2
REQUIRED_RECOVERY = 0.95


def test_tenancy_hit_gain_and_recovery_floors():
    reports = {
        policy: run_tenant_mix(
            SCENARIO_MIX, IntegrationMode.CPU_ONLY, 8192,
            base_config=PipelineConfig(tenancy_policy=policy,
                                       tenancy_cache_entries=96))
        for policy in ("shared_lru", "prioritized")}
    shared = reports["shared_lru"].inline_hit_rate
    prioritized = reports["prioritized"].inline_hit_rate
    assert shared > 0
    assert prioritized / shared >= REQUIRED_HIT_GAIN
    assert reports["prioritized"].recovery_fraction >= REQUIRED_RECOVERY
