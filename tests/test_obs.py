"""The observability layer: tracer, metrics, exporters, attribution.

Two families of tests:

* **Unit** — tracer/record semantics (validation, splits), the metrics
  registry, and the Chrome-trace validator on hand-built payloads.
* **Integration** — the acceptance criteria: a traced E4 run must leave
  the report byte-identical to an untraced run, tile >= 95% of the mean
  inline latency with stage spans, split the GPU-index and compression
  stages into queue wait vs. service, and export schema-valid Chrome
  ``trace_event`` JSON.
"""

import dataclasses
import json

import pytest

from repro.cli import _dump_trace
from repro.core.calibration import run_mode
from repro.core.config import PipelineConfig
from repro.core.modes import IntegrationMode
from repro.core.pipeline import ReductionPipeline
from repro.cpu.model import SimCpu
from repro.errors import TraceError
from repro.obs import (
    CriticalPathReport,
    MetricsRegistry,
    SimTracer,
    chrome_trace,
    validate_chrome_trace,
)
from repro.obs.stages import (
    DEDUP_COUNTER_KEYS,
    INLINE_STAGES,
    STAGE_ADMISSION,
    STAGE_CHUNK,
    STAGE_COMPACTION,
    STAGE_COMPRESS,
    STAGE_GPU_INDEX,
)
from repro.obs.tracer import Span
from repro.sim import Environment
from repro.sim.histogram import LatencyHistogram
from repro.tenancy.runner import run_tenant_mix
from tests.pins.runs import example_mix, tenant_config
from tests.test_pipeline_identity import SMALL_WINDOW, TRACED_MIX_POLICIES

#: Small-but-realistic traced-run scale: large enough that batching,
#: contention and destage all happen, small enough for test wall-clock.
N_CHUNKS = 512


def traced_run(mode: IntegrationMode, chunks: int = N_CHUNKS, **kwargs):
    tracer = SimTracer()
    report = run_mode(mode, chunks, tracer=tracer, **kwargs)
    return report, tracer


@pytest.fixture(scope="module")
def gpu_both_run():
    return traced_run(IntegrationMode.GPU_BOTH)


# -- sim tracer --------------------------------------------------------------

class TestSimTracer:
    def test_unbound_now_raises(self):
        with pytest.raises(TraceError, match="not bound"):
            SimTracer().now()

    def test_rebind_same_env_ok_other_env_rejected(self):
        env = Environment()
        tracer = SimTracer()
        tracer.bind(env)
        tracer.bind(env)  # idempotent
        with pytest.raises(TraceError, match="already bound"):
            tracer.bind(Environment())

    def test_record_end_defaults_to_now(self):
        env = Environment()
        tracer = SimTracer(env)

        def proc():
            yield env.timeout(2.0)
            tracer.record("stage", 7, start=0.5)

        env.process(proc())
        env.run()
        (span,) = tracer.spans
        assert span.start == 0.5 and span.end == 2.0
        assert span.duration == pytest.approx(1.5)
        assert span.chunk_id == 7

    def test_record_rejects_negative_duration(self):
        tracer = SimTracer(Environment())
        with pytest.raises(TraceError, match="ends before"):
            tracer.record("stage", start=2.0, end=1.0)

    def test_queue_wait_bounds(self):
        tracer = SimTracer(Environment())
        with pytest.raises(TraceError, match="queue_wait"):
            tracer.record("s", start=0.0, end=1.0, queue_wait=-0.5)
        with pytest.raises(TraceError, match="queue_wait"):
            tracer.record("s", start=0.0, end=1.0, queue_wait=1.5)
        # Float-epsilon overshoot clamps instead of raising.
        span = tracer.record("s", start=0.0, end=1.0,
                             queue_wait=1.0 + 1e-13)
        assert span.queue_wait == 1.0
        assert (span.duration - span.queue_wait) == pytest.approx(0.0)

    def test_record_since_derives_queue_wait(self):
        env = Environment()
        tracer = SimTracer(env)

        def proc():
            yield env.timeout(1.0)
            tracer.record_since("stage", 1, 0.0,
                                expected_service_s=0.25)

        env.process(proc())
        env.run()
        (span,) = tracer.spans
        assert span.queue_wait == pytest.approx(0.75)
        assert (span.duration - span.queue_wait) == pytest.approx(0.25)

    def test_record_split_tiles_exactly(self):
        env = Environment()
        tracer = SimTracer(env)

        def proc():
            yield env.timeout(1.0)
            tracer.record_split(("a", "b"), 3, 0.0, weights=(1.0, 3.0),
                                expected_service_s=0.8)

        env.process(proc())
        env.run()
        first, second = tracer.spans
        # Contention wait (0.2) lands on the first stage; the service
        # portion splits 1:3; the spans tile [0, 1] with no gap.
        assert first.start == 0.0
        assert first.queue_wait == pytest.approx(0.2)
        assert (first.duration - first.queue_wait) == pytest.approx(0.2)
        assert second.start == first.end
        assert second.end == 1.0  # pinned exactly, no float residue
        assert (second.duration - second.queue_wait) == pytest.approx(0.6)

    def test_record_split_validates_inputs(self):
        tracer = SimTracer(Environment())
        with pytest.raises(TraceError, match="align"):
            tracer.record_split(("a", "b"), 1, 0.0, weights=(1.0,),
                                expected_service_s=0.0)
        with pytest.raises(TraceError, match="non-positive"):
            tracer.record_split(("a",), 1, 0.0, weights=(0.0,),
                                expected_service_s=0.0)


# -- metrics registry --------------------------------------------------------

class TestMetricsRegistry:
    def test_get_or_create_and_kind_conflict(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        assert registry.counter("a.b") is counter
        with pytest.raises(TraceError, match="Counter"):
            registry.gauge("a.b")

    def test_counter_cannot_decrease(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(5)
        with pytest.raises(TraceError, match="decrease"):
            counter.inc(-1)

    def test_absorb_counters_is_delta_idempotent(self):
        registry = MetricsRegistry()
        live = {"hits": 3, "misses": 1}
        registry.absorb_counters("cache", live)
        registry.absorb_counters("cache", live)
        assert registry.value("cache.hits") == 3
        live["hits"] = 10
        registry.absorb_counters("cache", live)
        assert registry.value("cache.hits") == 10
        # A level that falls is no counter: absorbing it raises, as
        # Counter.inc does, instead of keeping the stale high value.
        live["hits"] = 4
        with pytest.raises(TraceError, match="decrease"):
            registry.absorb_counters("cache", live)
        assert registry.value("cache.hits") == 10

    def test_attach_histogram_shares_storage(self):
        registry = MetricsRegistry()
        hist = LatencyHistogram()
        metric = registry.attach_histogram("lat", hist)
        hist.record(0.5)
        assert registry.value("lat")["max"] == 0.5
        assert registry.attach_histogram("lat", hist) is metric
        with pytest.raises(TraceError, match="different histogram"):
            registry.attach_histogram("lat", LatencyHistogram())

    def test_snapshot_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc(2)
        registry.gauge("a.first").set(1.5)
        assert list(registry.snapshot()) == ["a.first", "z.last"]
        with pytest.raises(TraceError, match="unknown"):
            registry.value("nope")


# -- chrome exporter / validator ---------------------------------------------

def _spans_for_export():
    return [
        Span(STAGE_CHUNK, 0, 0.0, 2e-3),
        Span("chunking", 0, 0.0, 1e-3, queue_wait=2e-4),
        Span("commit", 0, 1e-3, 2e-3),
        Span(STAGE_CHUNK, 1, 1e-3, 3e-3),
        Span("chunking", 1, 1e-3, 3e-3),
        Span("ssd_write", None, 0.0, 5e-4, resource="ssd",
             attrs={"bytes": 4096}),
    ]


class TestChromeExport:
    def test_payload_shape_and_metadata(self):
        payload = chrome_trace(_spans_for_export())
        events = payload["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert {"process_name", "thread_name"} <= names
        slices = [e for e in events if e["ph"] == "X"]
        # Chunk 0's envelope overlaps chunk 1's: distinct lanes.
        tids = {e["tid"] for e in slices if e.get("args", {})
                .get("chunk_id") is not None}
        assert len(tids) >= 2
        micro = [e["ts"] for e in slices]
        assert all(ts >= 0 for ts in micro)
        assert validate_chrome_trace(payload) == []

    def test_args_carry_span_detail(self):
        payload = chrome_trace(_spans_for_export())
        ssd = [e for e in payload["traceEvents"]
               if e.get("cat") == "ssd"]
        assert ssd and ssd[0]["args"]["bytes"] == 4096

    def test_cli_trace_writer_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        spans = _spans_for_export()
        assert _dump_trace(spans, str(path)) == 0
        assert json.loads(path.read_text()) == chrome_trace(spans)
        assert f"events -> {path}" in capsys.readouterr().out

    def test_validator_rejects_malformed_payloads(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "x"}) != []
        missing = {"traceEvents": [{"ph": "X", "name": "s"}]}
        assert any("missing" in p
                   for p in validate_chrome_trace(missing))
        negative = {"traceEvents": [
            {"name": "s", "ph": "X", "ts": -5.0, "dur": 1.0,
             "pid": 1, "tid": 1}]}
        assert validate_chrome_trace(negative) != []

    def test_validator_rejects_overlapping_lane(self):
        # Two slices on one tid that overlap without nesting.
        bad = {"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0,
             "pid": 1, "tid": 1},
            {"name": "b", "ph": "X", "ts": 5.0, "dur": 10.0,
             "pid": 1, "tid": 1}]}
        assert any("overlap" in p.lower()
                   for p in validate_chrome_trace(bad))

    def test_validator_caps_problem_list(self):
        bad = {"traceEvents": [{"ph": "X"}] * 100}
        assert len(validate_chrome_trace(bad, max_problems=5)) == 5


# -- integration: the acceptance criteria ------------------------------------

class TestTracedRunAcceptance:
    @pytest.mark.parametrize("mode", [IntegrationMode.GPU_BOTH,
                                      IntegrationMode.CPU_ONLY])
    def test_tracing_changes_no_report(self, mode):
        untraced = dataclasses.asdict(run_mode(mode, N_CHUNKS, tracer=None))
        traced, _ = traced_run(mode)
        assert dataclasses.asdict(traced) == untraced

    @pytest.mark.parametrize("policy", TRACED_MIX_POLICIES)
    def test_tracing_changes_no_tenant_mix_report(self, policy):
        """The tenant mixes ``test_pipeline_identity`` traces: the only
        runs that reach the compaction epoch's recording site."""
        def run(tracer):
            return dataclasses.asdict(run_tenant_mix(
                example_mix(), IntegrationMode.GPU_BOTH, 1024,
                base_config=tenant_config(policy, **SMALL_WINDOW),
                tracer=tracer))

        tracer = SimTracer()
        assert run(tracer) == run(None)
        assert any(span.stage == STAGE_COMPACTION for span in tracer.spans)

    def test_chunk_envelopes_match_admissions(self, gpu_both_run):
        report, tracer = gpu_both_run
        envelopes = [s for s in tracer.spans if s.stage == STAGE_CHUNK]
        assert len(envelopes) == N_CHUNKS
        assert len({s.chunk_id for s in envelopes}) == N_CHUNKS
        mean = sum(s.duration for s in envelopes) / N_CHUNKS
        assert mean == pytest.approx(report.mean_latency_s, rel=1e-9)

    def test_spans_well_formed(self, gpu_both_run):
        _, tracer = gpu_both_run
        for span in tracer.spans:
            assert span.end >= span.start
            assert 0.0 <= span.queue_wait <= span.duration + 1e-12
            assert span.stage
        admissions = [s for s in tracer.spans
                      if s.stage == STAGE_ADMISSION]
        assert len(admissions) == N_CHUNKS

    def test_critical_path_coverage(self, gpu_both_run):
        report, tracer = gpu_both_run
        critical = CriticalPathReport.from_spans(tracer.spans)
        assert critical.n_chunks == N_CHUNKS
        assert critical.mean_latency_s == pytest.approx(
            report.mean_latency_s, rel=1e-9)
        # Acceptance gate: inline stage attributions account for >= 95%
        # of the mean latency (they tile it, so ~100%).
        assert critical.coverage >= 0.95
        assert {b.stage for b in critical.stages} <= set(INLINE_STAGES)

    def test_gpu_index_and_compress_split_queue_vs_service(
            self, gpu_both_run):
        _, tracer = gpu_both_run
        critical = CriticalPathReport.from_spans(tracer.spans)
        by_stage = {b.stage: b for b in critical.stages}
        for stage in (STAGE_GPU_INDEX, STAGE_COMPRESS):
            breakdown = by_stage[stage]
            assert breakdown.spans > 0
            assert breakdown.queue_wait_s > 0.0
            assert breakdown.service_s > 0.0
            assert breakdown.total_s == pytest.approx(
                breakdown.queue_wait_s + breakdown.service_s)

    def test_chrome_export_validates_clean(self, gpu_both_run):
        _, tracer = gpu_both_run
        payload = chrome_trace(tracer.spans)
        assert validate_chrome_trace(payload) == []
        assert len(payload["traceEvents"]) > len(tracer.spans)

    def test_report_render_and_json(self, gpu_both_run):
        _, tracer = gpu_both_run
        critical = CriticalPathReport.from_spans(tracer.spans)
        text = critical.render()
        assert "critical path over 512 chunks" in text
        assert "gpu_index" in text
        decoded = json.loads(critical.to_json())
        assert decoded["n_chunks"] == N_CHUNKS
        assert decoded["coverage"] >= 0.95


# -- pipeline metrics publication --------------------------------------------

class TestPublishMetrics:
    def test_registry_matches_report(self):
        from repro.cpu.model import I7_2600K
        from repro.gpu.device import GpuDevice, RADEON_HD_7970
        from repro.storage.ssd import SsdModel
        from repro.workload.vdbench import VdbenchStream

        env = Environment()
        config = PipelineConfig(mode=IntegrationMode.GPU_BOTH)
        cpu = SimCpu(env, I7_2600K)
        gpu = GpuDevice(env, RADEON_HD_7970)
        ssd = SsdModel(env)
        pipeline = ReductionPipeline(env, config, cpu=cpu, gpu=gpu,
                                     ssd=ssd)
        stream = VdbenchStream(seed=7)
        report = pipeline.run(stream.chunks(256), total=256)

        registry = pipeline.publish_metrics()
        assert registry.value("pipeline.chunks_done") == 256
        # The report snapshots counters before the shutdown drain;
        # the registry reads the live (post-drain) values, so flushes
        # and restarts may only have grown since.
        for key in DEDUP_COUNTER_KEYS:
            live = registry.value(f"dedup.{key}")
            snapshot = report.counters.get(key, 0)
            if key in ("flushes", "restarts"):
                assert live >= snapshot
            else:
                assert live == snapshot
        latency = registry.value("pipeline.latency_s")
        assert latency["mean"] == pytest.approx(report.mean_latency_s)
        assert registry.value("ssd.nand_bytes_written") \
            == report.nand_bytes_written
        # Re-publishing into the same registry is a no-op (delta = 0).
        before = registry.snapshot()
        assert pipeline.publish_metrics(registry).snapshot() == before


    def test_events_per_chunk_from_the_runs_own_registry(self):
        """The guard against a per-item hop creeping back: a chunk costs
        a window grant, ~3.5 CPU charges and its share of per-batch
        entries — under 6 calendar entries, not 15."""
        from repro.core.calibration import run_stream
        from repro.workload.vdbench import VdbenchStream

        config = PipelineConfig(mode=IntegrationMode.GPU_BOTH)
        stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=1234)
        pipeline, report = run_stream(stream, 2048, config)
        registry = pipeline.publish_metrics()
        events = registry.value("sim.events_scheduled")
        assert 3 * report.chunks < events <= 6 * report.chunks
        for name in ("gpu-index", "gpu-comp"):
            launched = registry.value(f"batcher.{name}.batches_launched")
            wakeups = registry.value(f"batcher.{name}.wakeups")
            # At most an idle park and a collecting park per batch
            # (plus the stop() wake-up): never one per item.
            assert 0 < wakeups <= 2 * launched + 1
            assert registry.value(f"batcher.{name}.deadline_fires") \
                <= launched


    def test_tenant_mix_destage_is_no_calendar_entry(self):
        """Prioritized tenancy destages every stored chunk on its own,
        one SSD write per chunk: a booking on the channel ledger, so
        the run stays under 5 entries per chunk (it was ~5.6 with the
        write a channel hold)."""
        from repro.core.calibration import run_stream
        from repro.tenancy import TenantMixStream
        from tests.pins.runs import MIX_CACHE, example_mix

        config = PipelineConfig(mode=IntegrationMode.GPU_COMP,
                                tenancy_policy="prioritized",
                                tenancy_cache_entries=MIX_CACHE)
        pipeline, report = run_stream(TenantMixStream(example_mix()),
                                      1024, config)
        registry = pipeline.publish_metrics()
        assert registry.value("pipeline.destage_batches") \
            == report.chunks == 1024
        events = registry.value("sim.events_scheduled")
        assert 3 * report.chunks < events < 5 * report.chunks

    def test_mid_run_publishes_track_the_compaction_queue(self):
        """A process re-publishes a prioritized tenant mix into one
        registry every 2 ms.  The deferred queue grows and drains, so
        its length is a gauge that reads the live value at the end;
        every absorbed counter only grows, or the publish raises."""
        from repro.cpu.model import SimCpu
        from repro.gpu.device import GpuDevice
        from repro.storage.ssd import SsdModel
        from repro.tenancy import TenantMixStream
        from tests.pins.runs import MIX_CACHE

        env = Environment()
        config = PipelineConfig(mode=IntegrationMode.GPU_COMP,
                                tenancy_policy="prioritized",
                                tenancy_cache_entries=MIX_CACHE)
        pipeline = ReductionPipeline(env, config, cpu=SimCpu(env),
                                     ssd=SsdModel(env), gpu=GpuDevice(env))
        registry = MetricsRegistry()
        peaks = []

        def publisher():
            while True:
                pipeline.publish_metrics(registry)
                peaks.append(registry.value("tenancy.compaction_pending"))
                if registry.value("pipeline.chunks_done") == 1024:
                    return
                yield env.timeout(2e-3)

        env.process(publisher())
        pipeline.run(TenantMixStream(example_mix()).chunks(1024), 1024)
        pipeline.publish_metrics(registry)
        assert max(peaks) > 0
        assert len(pipeline.tenancy.compaction) == 0
        assert registry.value("tenancy.compaction_pending") == 0

    def test_lockstep_census_keeps_the_scalar_scan_rare(self):
        """The guard against the per-position scalar path creeping back
        into the GPU LZ kernel, with no wall clock in it: on the vdbench
        texture the walk takes no more rounds than the longest segment
        has bytes, and at most 5 % of the positions the nearest
        candidate leaves open reach ``_scan_chain``."""
        from repro.gpu.kernels.lz import LZ_CENSUS, SegmentLzKernel
        from repro.workload.vdbench import VdbenchStream

        stream = VdbenchStream(dedup_ratio=1.2, comp_ratio=3.0,
                               payload=True, seed=18)
        payloads = [chunk.payload for chunk in stream.chunks(64)]
        kernel = SegmentLzKernel(payloads, segments_per_chunk=8)
        launch = kernel.execute()
        assert 0 < kernel.rounds <= 4096 // 8
        assert kernel.open_visits > 1000
        assert kernel.scalar_scans <= 0.05 * kernel.open_visits
        assert kernel.open_visits == (
            kernel.closed_by_trigram + kernel.closed_by_second
            + kernel.scalar_scans)
        assert kernel.open_visits <= kernel.candidate_visits \
            < sum(map(len, payloads))
        assert launch.census == {name: getattr(kernel, name)
                                 for name in LZ_CENSUS}

    def test_gpu_lz_census_is_published_but_not_reported(self):
        """The compressor's census sums every search it ran, on a
        helper or in the caller.  How payloads were tiled moves its
        values, so it is published and never reported or pinned; the
        walk's own identities hold whatever the tiling."""
        from repro.core.calibration import run_stream
        from repro.gpu.kernels.lz import LZ_CENSUS
        from repro.workload.vdbench import VdbenchStream

        config = PipelineConfig(mode=IntegrationMode.GPU_COMP)
        stream = VdbenchStream(dedup_ratio=1.2, comp_ratio=3.0,
                               payload=True, seed=18)
        pipeline, report = run_stream(stream, 96, config)
        registry = pipeline.publish_metrics()
        census = pipeline.gpu_comp.lz_census
        assert census["rounds"] > 0 and census["open_visits"] > 0
        assert census["open_visits"] == (
            census["closed_by_trigram"] + census["closed_by_second"]
            + census["scalar_scans"])
        assert census["scalar_scans"] <= 0.05 * census["open_visits"]
        assert census["candidate_visits"] \
            < pipeline.gpu_comp.chunks_compressed * 4096
        for name in LZ_CENSUS:
            assert registry.value(f"compress.gpu.lz_{name}") \
                == census[name]
        assert not any("lz_" in key for key in report.counters)
        assert not any("lz_" in field.name
                       for field in dataclasses.fields(report))


class TestVolumeMetrics:
    def test_volume_metrics_namespaces(self):
        from repro.storage.volume import ReducedVolume

        volume = ReducedVolume()
        payload = bytes(range(256)) * 16
        volume.write(0, payload * 2)  # second copy deduplicates
        registry = volume.metrics()
        assert registry.value("dedup.uniques") >= 1
        assert registry.value("volume.logical_bytes") \
            == volume.logical_bytes
        assert registry.value("compress.cpu.chunks_compressed") >= 1
        assert registry.value("volume.dedup_ratio") \
            == pytest.approx(volume.dedup_ratio())
