"""Byte-identity pins for the one chunk worker (DESIGN.md §12, §13).

Every digest below was captured at the commit *before*
``ReductionPipeline._chunk_worker`` was collapsed from three branches
(tenancy / dedup / no-dedup) into one, and must never move without a
stated cause.  Three families:

* **reports** — the four per-mode golden digests
  (``tests.goldens.GOLDEN_REPORT_SHA256``), plus payload-mode,
  paced, dedup-only and global-lock variants of the same worker;
* **tenant mix** — ``TenancyRunReport.as_dict()`` for the committed
  ``examples/tenant_mix.json`` scenario under both admission policies;
* **traces** — the ordered span list of traced runs, so the stage
  names, the ``"path"`` attrs (``tenant_cache``, ``gpu_hit``,
  ``pending``, ``buffer_reprobe``, ``tenant_shadow``, …), the
  ``record_split`` weights and the derived queue waits all survive.
  ``queue_wait`` is hashed too: it is the only place the worker's
  ``expected_service_s`` argument shows.
"""

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import pytest

from tests.goldens import GOLDEN_REPORT_CHUNKS, GOLDEN_REPORT_SHA256
from tests.reference_paths import report_digests

from repro.core import IntegrationMode, PipelineConfig
from repro.core.calibration import run_mode
from repro.obs import SimTracer
from repro.tenancy import TenantMix
from repro.tenancy.runner import run_tenant_mix

MIX_PATH = Path(__file__).resolve().parent.parent / "examples" \
    / "tenant_mix.json"
MIX_CACHE = 96
MIX_CHUNKS = 4096


def digest(value) -> str:
    canonical = json.dumps(value, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def span_digest(spans) -> str:
    return digest([(s.stage, s.chunk_id, s.start, s.end, s.queue_wait,
                    s.resource, s.attrs) for s in spans])


def example_mix() -> TenantMix:
    return TenantMix.from_json(MIX_PATH.read_text())


def tenant_config(policy: str, **overrides) -> PipelineConfig:
    return PipelineConfig(tenancy_policy=policy,
                          tenancy_cache_entries=MIX_CACHE, **overrides)


def test_golden_report_digests_all_modes():
    assert report_digests(GOLDEN_REPORT_CHUNKS) == GOLDEN_REPORT_SHA256


#: name -> (mode, chunks, config overrides, run_mode kwargs, sha256).
REPORT_VARIANTS = {
    "payload_gpu_both": (
        "gpu_both", 192, {}, {"payload": True},
        "18d37b3998cb07a6e38c81e38780159ffb3bb4571f132d3ca28c75730f1ff979"),
    "payload_cpu_only_dedup_off": (
        "cpu_only", 192, {"enable_dedup": False}, {"payload": True},
        "93b88164fdf63dbbf7e835e4f8f67a71c18adab87f8d3d8021390efdbd2403e0"),
    "dedup_off_gpu_comp": (
        "gpu_comp", 1024, {"enable_dedup": False}, {},
        "4cad5c2677cce8515dd5983da69b367e4ed77e2dd669030d21d62b31de2d63fd"),
    "compression_off_gpu_dedup": (
        "gpu_dedup", 1024, {"enable_compression": False}, {},
        "6e8579f3f82eb89a1a602d70a5248a7f00a2871a2ef3721b62c0ea53f1d3417d"),
    "global_lock_cpu_only": (
        "cpu_only", 1024, {"index_locking": "global"}, {},
        "a11acc9cbb208e5f79c14c442e07be8842e8df747b80d0a71876a126046dda38"),
    "paced_always_offload": (
        "gpu_dedup", 512,
        {"arrival_rate_iops": 20000.0, "gpu_index_policy": "always"}, {},
        "a87e3ba0a926655d221b9e1af89244cdbeb29c39e915e27f230c2ecea352a7dc"),
    "no_destage_small_bins": (
        "gpu_both", 2048,
        {"destage_enabled": False, "bin_buffer_capacity": 4,
         "bin_buffer_total": 256, "gpu_bin_capacity": 8}, {},
        "78308a06ba661adecfbd848dc4e4127d4a3d5b726092d7d1098b6c3f2a4b84fa"),
}


@pytest.mark.parametrize("name", sorted(REPORT_VARIANTS))
def test_report_variant_digest(name):
    mode, chunks, overrides, kwargs, golden = REPORT_VARIANTS[name]
    report = run_mode(IntegrationMode(mode), chunks,
                      base_config=PipelineConfig(**overrides), **kwargs)
    assert digest(dataclasses.asdict(report)) == golden


TENANT_MIX_SHA256 = {
    ("shared_lru", "gpu_comp"):
        "1e3554132038d2bcc7074744e074e21cbd9e4274a8cdbe522a959a84456835e4",
    ("shared_lru", "gpu_both"):
        "239e409ef8c42fc66bff3d07b7419bc107960de919f54981a0f338e6d3c369c1",
    ("prioritized", "gpu_comp"):
        "27bd305fe7ddb8194e532a3b85560e331504ffe23f710bf5ae85bbfc88d46697",
    ("prioritized", "gpu_both"):
        "08eb69c1a512fb9dbbf52442fccb68609cac831d9b0948b916c91ee221f5979b",
}


@pytest.mark.parametrize("policy,mode", sorted(TENANT_MIX_SHA256))
def test_tenant_mix_report_digest(policy, mode):
    report = run_tenant_mix(example_mix(), IntegrationMode(mode),
                            MIX_CHUNKS, base_config=tenant_config(policy))
    assert digest(report.as_dict()) == TENANT_MIX_SHA256[(policy, mode)]


def test_tenant_mix_payload_report_digest():
    report = run_tenant_mix(example_mix(), IntegrationMode.GPU_COMP, 192,
                            base_config=tenant_config("prioritized"),
                            payload=True)
    assert digest(report.as_dict()) == \
        "3ded9d98a8bb072dd399b6d3269e655796736e6367f6ed5964e9285b90c78d90"


#: A window well under the chunk count, so duplicates meet committed
#: twins (buffer / tree / GPU hits) and not only in-flight ones.
SMALL_WINDOW = {"window": 64, "gpu_index_batch": 16, "gpu_comp_batch": 16}

#: name -> (mode, chunks, config overrides).
TRACED_RUNS = {
    "gpu_both": ("gpu_both", 512, {}),
    "dedup_off_cpu_only": ("cpu_only", 512, {"enable_dedup": False}),
    "dedup_off_gpu_comp": ("gpu_comp", 512, {"enable_dedup": False}),
    "global_lock": ("cpu_only", 512, {"index_locking": "global"}),
    "small_bins_gpu_dedup": (
        "gpu_dedup", 1024,
        {"bin_buffer_capacity": 4, "bin_buffer_total": 256,
         "gpu_bin_capacity": 8, "gpu_index_policy": "always"}),
    "small_window_gpu_both": (
        "gpu_both", 1024,
        {**SMALL_WINDOW, "bin_buffer_capacity": 4, "bin_buffer_total": 64,
         "gpu_index_policy": "always"}),
    "small_window_cpu_only": (
        "cpu_only", 1024,
        {**SMALL_WINDOW, "bin_buffer_capacity": 4, "bin_buffer_total": 64}),
}
#: Traced tenant-mix runs (GPU_BOTH, 1024 chunks) by admission policy.
TRACED_MIX_POLICIES = ("shared_lru", "prioritized")

TRACE_SHA256 = {
    "gpu_both":
        "1e9b85235bdbe426b611cbb62f3a9e3c58cbc4529eaa7e8453c6fe42554abf7a",
    "dedup_off_cpu_only":
        "057053435e2179e519ed5091f2d38e1eebc0283b69e32d7700325ce2997a0eb2",
    "dedup_off_gpu_comp":
        "b74e7d82f3d246caf498032eaf71384c98dbf929b0a38117b2f3088492d9c7e8",
    "global_lock":
        "6db006dadb7dab10ab14667256560e3fd2022ae9cf3e4bad283fe5f6d577a94c",
    "small_bins_gpu_dedup":
        "a3cbcbb1c409870c17f737753b68ecbf6634e2a38f35a6e6368501023437b15c",
    "small_window_gpu_both":
        "a4a03a26b40fd22407ccc0e5103b69829a2a233e149e96dab4980ed46d36566b",
    "small_window_cpu_only":
        "e1206b0bf33932c18bff8a8e31ebe3ef12f577aee0f5135525b8f40ca8988f4a",
    "shared_lru":
        "bdb69b95c17144da4d2a510859a6a9cdd3ed237c9c3fba850da039346d4048e7",
    "prioritized":
        "2ac98859537d8825a12f4d299f51b105dbaaf384d6e3c0109dedf6a09f8b9458",
}


@functools.lru_cache(maxsize=None)
def traced_spans(name: str) -> tuple:
    """The span list of one pinned traced run (run once per session)."""
    tracer = SimTracer()
    if name in TRACED_MIX_POLICIES:
        run_tenant_mix(example_mix(), IntegrationMode.GPU_BOTH, 1024,
                       base_config=tenant_config(name, **SMALL_WINDOW),
                       tracer=tracer)
    else:
        mode, chunks, overrides = TRACED_RUNS[name]
        run_mode(IntegrationMode(mode), chunks,
                 base_config=PipelineConfig(**overrides), tracer=tracer)
    return tuple(tracer.spans)


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_traced_span_list_digest(name):
    assert span_digest(traced_spans(name)) == TRACE_SHA256[name]


def test_traced_spans_cover_every_worker_path():
    """The pinned traces are only a guard if they reach the branches."""
    seen = {span.attrs["path"]
            for name in TRACE_SHA256 for span in traced_spans(name)
            if span.attrs and "path" in span.attrs}
    assert seen >= {"buffer", "tree", "unique", "duplicate", "gpu_hit",
                    "pending", "buffer_reprobe", "race_duplicate",
                    "tenant_cache", "tenant_hit", "tenant_unique",
                    "tenant_shadow"}
