"""Every pinned golden, asserted unconditionally (tier-1).

``tests/goldens.py`` holds three tables captured before the fast paths
they guard, and ``tests/pins/`` the pinned reports; each is
load-bearing here or in ``test_pipeline_identity.py`` — corrupt one
entry of any table or one field of a pinned report and a test below
(or ``test_golden_report_all_modes``) fails.  The
tenancy floors at the bottom are the one non-digest pin: the policy
result the tenancy plane exists for, on the committed mix.
"""

import dataclasses
import hashlib

import pytest

from tests import pins
from tests.corpus import build_corpus
from tests.goldens import (
    GOLDEN_A11_FIELDS,
    GOLDEN_A7_FIELDS,
    GOLDEN_REPORT_CHUNKS,
    GOLDEN_STREAM_DIGESTS,
)
from tests.pins.runs import produce
from tests.reference_codecs import launch_outputs, refine_to_container

from repro.bench.experiments import (
    SCENARIO_MIX,
    a7_segment_sweep,
    a11_kernel_variants,
)
from repro.compression.lzss import LzssCodec
from repro.compression.quicklz import QuickLzCodec
from repro.core import IntegrationMode, PipelineConfig
from repro.gpu.kernels.lz import SegmentLzKernel
from repro.tenancy import TenantMix, TenantSpec
from repro.tenancy.runner import run_tenant_mix


def _gpu8(payload: bytes) -> bytes:
    (outputs,) = launch_outputs(
        SegmentLzKernel([payload], segments_per_chunk=8).execute())
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
    observed = {segments: (point["ratio"], point["ratio_loss"])
                for segments, point in a7_segment_sweep().items()}
    assert observed == GOLDEN_A7_FIELDS


def test_a11_kernel_variant_fields():
    observed = {batch: (launch["simple_s"], launch["tiled_s"],
                        launch["simple_bytes"], launch["tiled_bytes"])
                for batch, launch in a11_kernel_variants(
                    batch_sizes=(64, 256), n_entries=8192).items()}
    assert observed == GOLDEN_A11_FIELDS


@pytest.mark.parametrize("mode", IntegrationMode.all_modes(),
                         ids=lambda mode: mode.value)
def test_e4_report_fields(mode):
    """Full-size E4: exact report fields per integration mode."""
    pins.check("e4_fields", mode.value, produce("e4_fields", mode.value))


@pytest.mark.parametrize("mode", IntegrationMode.all_modes(),
                         ids=lambda mode: mode.value)
def test_one_tenant_mix_reproduces_the_golden_reports(mode):
    """The tenancy plane is invisible at one tenant: the pinned
    single-stream reports, through ``run_tenant_mix``."""
    mix = TenantMix(tenants=(TenantSpec(name="solo", seed=1234),), seed=99)
    report = run_tenant_mix(mix, mode, GOLDEN_REPORT_CHUNKS).pipeline
    pins.check("golden_reports", mode.value, dataclasses.asdict(report))


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
