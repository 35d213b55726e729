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
        "74f6de22d5780e6201d87d182b7f977748cd2fa99bdd5a4069ca6f917b89f34e"),
    "payload_cpu_only_dedup_off": (
        "cpu_only", 192, {"enable_dedup": False}, {"payload": True},
        "184e2af1615f80fb061a58e43843d7d3edcaaab619496c02834702fc7d4506b9"),
    "dedup_off_gpu_comp": (
        "gpu_comp", 1024, {"enable_dedup": False}, {},
        "4cad5c2677cce8515dd5983da69b367e4ed77e2dd669030d21d62b31de2d63fd"),
    "compression_off_gpu_dedup": (
        "gpu_dedup", 1024, {"enable_compression": False}, {},
        "fbf2251f32448eaa9587819d56a5242ba4402368d567b40962546a12ab140022"),
    "global_lock_cpu_only": (
        "cpu_only", 1024, {"index_locking": "global"}, {},
        "8e57998cc5bef40139ab356d1c90ed3adf9fe7f9f6216f9fd0aba9348a0e1ae5"),
    "paced_always_offload": (
        "gpu_dedup", 512,
        {"arrival_rate_iops": 20000.0, "gpu_index_policy": "always"}, {},
        "ea222b67ed7b07f2734c142e8140b150c080b0a2fe980c46b3303a7450b04243"),
    "small_bins": (
        "gpu_both", 2048,
        {"bin_buffer_capacity": 4, "bin_buffer_total": 256,
         "gpu_bin_capacity": 8}, {},
        "e3e044c896f449886ab34a810f578f4a528ddc6148fb49915faab76f2c2a124c"),
}


@pytest.mark.parametrize("name", sorted(REPORT_VARIANTS))
def test_report_variant_digest(name):
    mode, chunks, overrides, kwargs, golden = REPORT_VARIANTS[name]
    report = run_mode(IntegrationMode(mode), chunks,
                      base_config=PipelineConfig(**overrides), **kwargs)
    assert digest(dataclasses.asdict(report)) == golden


TENANT_MIX_SHA256 = {
    ("shared_lru", "gpu_comp"):
        "6922387a161f4763cc3e75b865a042bd2b2ae2fa3dc3c73fb7245f27efc2fe55",
    ("shared_lru", "gpu_both"):
        "32d487305a92bbca85ff20fea2c8368ab01996f8d4e22926ce205b27913443a7",
    ("prioritized", "gpu_comp"):
        "906389a30b4b6f664eaaed4d7f8118c75f954f25bb0e7d860e9c4e9f40bcea55",
    ("prioritized", "gpu_both"):
        "c6bee0a17443841e60e54017deabd4f1b8d601384924ac2a18a3ddf8b521c892",
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
        "c26793502b0978e10fbac66f98c518b5e68850f5b69a06d2586583d3780fdbf1",
    "dedup_off_cpu_only":
        "057053435e2179e519ed5091f2d38e1eebc0283b69e32d7700325ce2997a0eb2",
    "dedup_off_gpu_comp":
        "d69841ca787e230e77a6aae4c932bc29c4c931fa0f02efe746bf6d677e45e2e1",
    "global_lock":
        "6db006dadb7dab10ab14667256560e3fd2022ae9cf3e4bad283fe5f6d577a94c",
    "small_bins_gpu_dedup":
        "74334ae3fa8d4713b767a09fef1dacc34ee4e2ffd8391ad8babce72dc4f63668",
    "small_window_gpu_both":
        "8c44aa30c864ac2d6ee0373228c4fd632507bdb26d9894f546d63a6697d88941",
    "small_window_cpu_only":
        "e1206b0bf33932c18bff8a8e31ebe3ef12f577aee0f5135525b8f40ca8988f4a",
    "shared_lru":
        "3e1c93e0c25da9ba8ec0c417fe12edab6e6a456d4a1fc7c0df8e68219d66771d",
    "prioritized":
        "c7c9dd84be04fc8e2d4fb4312f9c18e71a004f9d194f1136a00b22e8f306d14b",
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
