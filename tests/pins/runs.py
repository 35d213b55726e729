"""The runs whose reports are pinned in ``tests/pins/*.json``.

Four families, each a table of named runs:

* ``golden_reports`` — the E4 report of every integration mode at
  ``GOLDEN_REPORT_CHUNKS``;
* ``report_variants`` — payload-mode, paced, dedup-only, global-lock
  and small-bin variants of the same chunk worker;
* ``tenant_mix`` — ``TenancyRunReport.as_dict()`` for the committed
  ``examples/tenant_mix.json`` scenario under both admission policies;
* ``e4_fields`` — the :data:`E4_FIELDS` of every mode's full-size
  (``GOLDEN_E4_CHUNKS``) E4 report.

:func:`produce` runs one of them; tier-1 and ``python -m tests.repin``
both go through it.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.core import IntegrationMode, PipelineConfig
from repro.core.calibration import run_mode
from repro.tenancy import TenantMix
from repro.tenancy.runner import run_tenant_mix
from tests.goldens import GOLDEN_E4_CHUNKS, GOLDEN_REPORT_CHUNKS

MIX_PATH = Path(__file__).resolve().parents[2] / "examples" \
    / "tenant_mix.json"
MIX_CACHE = 96
MIX_CHUNKS = 4096


def example_mix() -> TenantMix:
    return TenantMix.from_json(MIX_PATH.read_text())


def tenant_config(policy: str, **overrides) -> PipelineConfig:
    return PipelineConfig(tenancy_policy=policy,
                          tenancy_cache_entries=MIX_CACHE, **overrides)


MODES = tuple(mode.value for mode in IntegrationMode.all_modes())

#: name -> (mode, chunks, config overrides, run_mode kwargs).
REPORT_VARIANTS = {
    "payload_gpu_both": ("gpu_both", 192, {}, {"payload": True}),
    "payload_cpu_only_dedup_off": (
        "cpu_only", 192, {"enable_dedup": False}, {"payload": True}),
    "dedup_off_gpu_comp": ("gpu_comp", 1024, {"enable_dedup": False}, {}),
    "compression_off_gpu_dedup": (
        "gpu_dedup", 1024, {"enable_compression": False}, {}),
    "global_lock_cpu_only": (
        "cpu_only", 1024, {"index_locking": "global"}, {}),
    "paced_always_offload": (
        "gpu_dedup", 512,
        {"arrival_rate_iops": 20000.0, "gpu_index_policy": "always"}, {}),
    "small_bins": (
        "gpu_both", 2048,
        {"bin_buffer_capacity": 4, "bin_buffer_total": 256,
         "gpu_bin_capacity": 8}, {}),
}

#: name -> (admission policy, mode, chunks, payload).
TENANT_MIX_RUNS = {
    "shared_lru/gpu_comp": ("shared_lru", "gpu_comp", MIX_CHUNKS, False),
    "shared_lru/gpu_both": ("shared_lru", "gpu_both", MIX_CHUNKS, False),
    "prioritized/gpu_comp": ("prioritized", "gpu_comp", MIX_CHUNKS, False),
    "prioritized/gpu_both": ("prioritized", "gpu_both", MIX_CHUNKS, False),
    "prioritized/gpu_comp/payload": (
        "prioritized", "gpu_comp", 192, True),
}

#: The E4 report fields pinned at full size.
E4_FIELDS = ("dedup_ratio", "comp_ratio", "reduction_ratio", "duration_s",
             "mean_latency_s", "cpu_utilization", "gpu_utilization")

#: family -> the names of its runs.
RUNS = {
    "golden_reports": MODES,
    "report_variants": tuple(REPORT_VARIANTS),
    "tenant_mix": tuple(TENANT_MIX_RUNS),
    "e4_fields": MODES,
}


def produce(family: str, name: str) -> dict:
    """Run ``family/name`` and return the report its pin holds."""
    if family == "golden_reports":
        return dataclasses.asdict(
            run_mode(IntegrationMode(name), GOLDEN_REPORT_CHUNKS))
    if family == "report_variants":
        mode, chunks, overrides, kwargs = REPORT_VARIANTS[name]
        return dataclasses.asdict(run_mode(
            IntegrationMode(mode), chunks,
            base_config=PipelineConfig(**overrides), **kwargs))
    if family == "tenant_mix":
        policy, mode, chunks, payload = TENANT_MIX_RUNS[name]
        return run_tenant_mix(example_mix(), IntegrationMode(mode), chunks,
                              base_config=tenant_config(policy),
                              payload=payload).as_dict()
    if family == "e4_fields":
        report = dataclasses.asdict(
            run_mode(IntegrationMode(name), GOLDEN_E4_CHUNKS))
        return {field: report[field] for field in E4_FIELDS}
    raise KeyError(family)
