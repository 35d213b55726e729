"""Byte-identity pins for the one chunk worker (DESIGN.md §12, §13).

Every pin below was captured at the commit *before*
``ReductionPipeline._chunk_worker`` was collapsed from three branches
(tenancy / dedup / no-dedup) into one, and must never move without a
stated cause.  Three families:

* **reports** — the four per-mode golden reports, plus payload-mode,
  paced, dedup-only and global-lock variants of the same worker;
* **tenant mix** — ``TenancyRunReport.as_dict()`` for the committed
  ``examples/tenant_mix.json`` scenario under both admission policies;
* **traces** — the ordered span list of traced runs, so the stage
  names, the ``"path"`` attrs (``tenant_cache``, ``gpu_hit``,
  ``pending``, ``buffer_reprobe``, ``tenant_shadow``, …), the
  ``record_split`` weights and the derived queue waits all survive.
  ``queue_wait`` is hashed too: it is the only place the worker's
  ``expected_service_s`` argument shows.

Reports are pinned field by field (``tests/pins/``, produced by
``tests/pins/runs.py``); a span list is not a report, so traces stay
sha256 digests.
"""

import functools
import hashlib
import json

import pytest

from tests import pins
from tests.pins.runs import RUNS, example_mix, produce, tenant_config

from repro.core import IntegrationMode, PipelineConfig
from repro.core.calibration import run_mode
from repro.obs import SimTracer
from repro.tenancy.runner import run_tenant_mix


def digest(value) -> str:
    canonical = json.dumps(value, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def span_digest(spans) -> str:
    return digest([(s.stage, s.chunk_id, s.start, s.end, s.queue_wait,
                    s.resource, s.attrs) for s in spans])


@pytest.mark.parametrize("mode", RUNS["golden_reports"])
def test_golden_report_all_modes(mode):
    pins.check("golden_reports", mode, produce("golden_reports", mode))


@pytest.mark.parametrize("name", RUNS["report_variants"])
def test_report_variant(name):
    pins.check("report_variants", name, produce("report_variants", name))


@pytest.mark.parametrize("name", RUNS["tenant_mix"])
def test_tenant_mix_report(name):
    pins.check("tenant_mix", name, produce("tenant_mix", name))


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

#: sha256 of each traced run's span list, in record order: SSD-write and
#: destage spans are recorded when the write is booked, not when it ends.
TRACE_SHA256 = {
    "gpu_both":
        "b7bbc1f2559614accc650e7b22fb94607aefc0abfd545e2053f0983e788bd2d9",
    "dedup_off_cpu_only":
        "73de956f487cba4a50b1021a5ac51cea63e3e7892def1fcae3655806df57e6a8",
    "dedup_off_gpu_comp":
        "302a89556c52622b0207c38a217f5e804c9fe8334c21e400ce3e6291985798f7",
    "global_lock":
        "cac2633622740f52eb5fc6a49fa90ab2bfcdf9d30532e208ee208a2ebce96df3",
    "small_bins_gpu_dedup":
        "58eaa2ab66d249a932fbc960c4377c161a20805b44b1be8ab71d59eb77687cfc",
    "small_window_gpu_both":
        "791ceaa47896f298ee97df6839ea1b18e83d093a04691b7ac6ed83c462f657a1",
    "small_window_cpu_only":
        "41b201edf51e2a45aa1049f19637cc6c8df33213245f7851860d74e817a2e944",
    "shared_lru":
        "76ba58fc5cad7d3489b360e0d74997faa21c20b41416cb461a9e18786bda72da",
    "prioritized":
        "fa36cf53d9fdbaa73cc9a7c650cce4b46ef0ca94b4a1f24926c5dc23f39e663a",
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
