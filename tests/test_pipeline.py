"""Tests for the GPU batcher and the timed integrated pipeline."""

import pytest

from repro.core import IntegrationMode, PipelineConfig, ReductionPipeline
from repro.core.batcher import GpuBatcher
from repro.core.calibration import run_mode
from repro.cpu import SimCpu
from repro.errors import ConfigError
from repro.gpu import GpuDevice, Kernel, KernelCost
from repro.sim import Environment
from repro.storage import SsdModel
from repro.workload import VdbenchStream


def build_pipeline(config: PipelineConfig) -> ReductionPipeline:
    """A pipeline on a fresh environment and the testbed's devices,
    with a GPU only when the mode uses one."""
    env = Environment()
    cpu, ssd = SimCpu(env), SsdModel(env)
    mode = config.mode
    gpu = (GpuDevice(env)
           if mode.gpu_for_dedup or mode.gpu_for_compression else None)
    return ReductionPipeline(env, config, cpu=cpu, ssd=ssd, gpu=gpu)


class _EchoKernel(Kernel):
    """Returns its items; tiny fixed cost."""

    name = "echo"

    def __init__(self, items):
        self.items = items

    def execute(self):
        return [item * 10 for item in self.items]

    def cost(self):
        return KernelCost(name=self.name, threads=len(self.items),
                          lane_cycles_total=1e3, critical_path_cycles=1e3,
                          bytes_read=0.0, bytes_written=0.0)

    def bytes_in(self):
        return 0

    def bytes_out(self):
        return 0


def _make_batcher(env, gpu, batch_size=4, max_wait=1e-3):
    return GpuBatcher(
        env, gpu,
        make_kernel=_EchoKernel,
        split_results=lambda items, raw: raw,
        batch_size=batch_size, max_wait_s=max_wait, name="echo")


class TestGpuBatcher:
    def test_full_batch_single_launch(self):
        env = Environment()
        gpu = GpuDevice(env)
        batcher = _make_batcher(env, gpu, batch_size=4)
        results = {}

        def submitter(i):
            result = yield batcher.submit(i)
            results[i] = result

        for i in range(4):
            env.process(submitter(i))
        env.run()
        assert results == {i: i * 10 for i in range(4)}
        assert batcher.batches_launched == 1

    def test_partial_batch_launches_after_wait(self):
        env = Environment()
        gpu = GpuDevice(env)
        batcher = _make_batcher(env, gpu, batch_size=100, max_wait=2e-3)
        done_at = {}

        def submitter():
            yield batcher.submit(1)
            done_at["t"] = env.now

        env.process(submitter())
        env.run()
        assert "t" in done_at
        assert done_at["t"] >= 2e-3  # waited for the window
        assert batcher.items_processed == 1

    def test_items_across_multiple_batches(self):
        env = Environment()
        gpu = GpuDevice(env)
        batcher = _make_batcher(env, gpu, batch_size=3, max_wait=1e-4)
        count = [0]

        def submitter(i):
            yield batcher.submit(i)
            count[0] += 1

        for i in range(10):
            env.process(submitter(i))
        env.run()
        assert count[0] == 10
        assert batcher.batches_launched >= 4  # 3+3+3+1

    def test_invalid_params_rejected(self):
        env = Environment()
        gpu = GpuDevice(env)
        with pytest.raises(ConfigError):
            _make_batcher(env, gpu, batch_size=0)


def run_pipeline(mode, n_chunks=512, payload=False, **config_overrides):
    defaults = dict(
        mode=mode,
        window=64,
        gpu_index_batch=16,
        gpu_comp_batch=16,
        gpu_batch_wait_s=5e-4,
        bin_buffer_capacity=8,
        bin_buffer_total=64,
        gpu_bin_capacity=4096,
    )
    defaults.update(config_overrides)
    pipeline = build_pipeline(PipelineConfig(**defaults))
    stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=21,
                           payload=payload)
    report = pipeline.run(stream.chunks(n_chunks), total=n_chunks)
    return report, pipeline, stream


class TestPipelineFunctional:
    def test_cpu_only_processes_everything(self):
        report, pipeline, stream = run_pipeline(IntegrationMode.CPU_ONLY)
        assert report.chunks == 512
        assert report.duration_s > 0
        assert report.counters["uniques"] == stream.stats.uniques
        assert report.duplicates_found + report.counters["uniques"] \
            + report.counters.get("pending_hits", 0) == 512

    def test_dedup_ratio_matches_workload(self):
        report, _, stream = run_pipeline(IntegrationMode.CPU_ONLY,
                                         n_chunks=2000)
        assert report.dedup_ratio == pytest.approx(
            stream.stats.chunks / stream.stats.uniques, rel=0.01)

    def test_all_modes_agree_functionally(self):
        """Every mode must find the same uniques — offload must never
        change the *outcome*, only the timing."""
        uniques = {}
        for mode in IntegrationMode.all_modes():
            report, _, _ = run_pipeline(mode, n_chunks=1024)
            uniques[mode] = report.counters["uniques"]
        assert len(set(uniques.values())) == 1

    def test_gpu_comp_uses_gpu(self):
        report, _, _ = run_pipeline(IntegrationMode.GPU_COMP)
        assert report.gpu_kernels > 0
        assert report.gpu_utilization > 0

    def test_cpu_only_never_touches_gpu(self):
        report, pipeline, _ = run_pipeline(IntegrationMode.CPU_ONLY)
        assert report.gpu_kernels == 0
        assert pipeline.gpu is None

    def test_gpu_dedup_offloads_lookups(self):
        report, _, _ = run_pipeline(IntegrationMode.GPU_DEDUP,
                                    n_chunks=2048)
        # Once bins flush, GPU lookups start resolving duplicates.
        assert report.counters["gpu_hits"] > 0

    @pytest.mark.parametrize("policy,rate,skipped", [
        ("saturation", None, 0),        # closed loop: threads all busy
        ("saturation", 20e3, 2048),     # paced: a thread is always idle
        ("always", 20e3, 0),
    ])
    def test_every_lookup_is_offloaded_or_skipped(self, policy, rate,
                                                  skipped):
        """The offload rule decides once per chunk in a GPU-dedup run:
        each lookup either rides the index batcher or is a skip (an
        idle CPU thread), and "always" never skips."""
        report, pipeline, _ = run_pipeline(IntegrationMode.GPU_DEDUP,
                                           n_chunks=2048,
                                           gpu_index_policy=policy,
                                           arrival_rate_iops=rate)
        registry = pipeline.publish_metrics()
        skips = registry.value("pipeline.gpu_offload_skips")
        offloaded = registry.value("batcher.gpu-index.items_processed")
        assert skips + offloaded == report.chunks == 2048
        assert skips == skipped

    def test_payload_mode_end_to_end(self):
        """Real bytes through the timed pipeline: real SHA-1 dedup and
        real compression sizes."""
        report, pipeline, stream = run_pipeline(
            IntegrationMode.CPU_ONLY, n_chunks=96, payload=True)
        assert report.counters["uniques"] == stream.stats.uniques
        assert 1.2 < report.comp_ratio < 3.5
        pipeline.dedup.metadata.verify_invariants()

    def test_payload_gpu_comp_roundtrip_sizes(self):
        report, pipeline, _ = run_pipeline(
            IntegrationMode.GPU_COMP, n_chunks=96, payload=True)
        assert report.comp_ratio > 1.2
        assert report.gpu_kernels > 0

    def test_compression_only_mode(self):
        config = dict(enable_dedup=False)
        report, pipeline, _ = run_pipeline(IntegrationMode.CPU_ONLY,
                                           **config)
        assert report.counters == {}
        assert report.comp_ratio > 1.5
        assert pipeline.dedup is None

    def test_dedup_only_mode(self):
        report, _, _ = run_pipeline(IntegrationMode.CPU_ONLY,
                                    enable_compression=False)
        assert report.comp_ratio == 1.0
        assert report.dedup_ratio == pytest.approx(2.0, rel=0.15)

    def test_destage_writes_reach_ssd(self):
        report, pipeline, _ = run_pipeline(IntegrationMode.CPU_ONLY,
                                           n_chunks=2048)
        assert report.destage_batches > 0
        assert report.nand_bytes_written > 0

    def test_empty_run_rejected(self):
        pipeline = build_pipeline(
            PipelineConfig(mode=IntegrationMode.CPU_ONLY))
        with pytest.raises(ConfigError):
            pipeline.run(iter([]), total=0)

    def test_run_is_single_shot(self):
        report, pipeline, stream = run_pipeline(IntegrationMode.CPU_ONLY,
                                                n_chunks=64)
        with pytest.raises(ConfigError, match="single-shot"):
            pipeline.run(stream.chunks(64), total=64)
        assert report.chunks == 64

    def test_stream_longer_than_total_rejected(self):
        pipeline = build_pipeline(
            PipelineConfig(mode=IntegrationMode.CPU_ONLY))
        stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=21)
        with pytest.raises(ConfigError, match="total=200.*201"):
            pipeline.run(stream.chunks(256), total=200)
        # The feeder stopped at ``total``: nothing was over-admitted.
        assert pipeline.bytes_in == 200 * 4096

    def test_stream_shorter_than_total_rejected(self):
        pipeline = build_pipeline(
            PipelineConfig(mode=IntegrationMode.CPU_ONLY))
        stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=21)
        with pytest.raises(ConfigError, match="after 100 chunks.*200"):
            pipeline.run(stream.chunks(100), total=200)

    def test_report_iops_consistency(self):
        report, _, _ = run_pipeline(IntegrationMode.CPU_ONLY)
        assert report.iops == pytest.approx(
            report.chunks / report.duration_s)
        assert report.mb_per_s == pytest.approx(
            report.bytes_in / report.duration_s / 1e6)

    def test_window_smaller_than_batch_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(mode=IntegrationMode.GPU_COMP, window=8,
                           gpu_comp_batch=64)

    @pytest.mark.parametrize("rate", [0, -5.0, float("nan"), float("inf")])
    def test_invalid_arrival_rate_rejected(self, rate):
        # Not silently a closed-loop run: the rate is None or finite > 0.
        with pytest.raises(ConfigError, match="arrival_rate_iops"):
            PipelineConfig(arrival_rate_iops=rate)


class TestPipelinePerformanceShape:
    """Coarse shape checks; the benchmarks assert the precise bands."""

    def test_gpu_comp_beats_cpu_only(self):
        cpu_only, _, _ = run_pipeline(IntegrationMode.CPU_ONLY,
                                      n_chunks=4096, window=1024,
                                      gpu_comp_batch=256,
                                      gpu_index_batch=256)
        gpu_comp, _, _ = run_pipeline(IntegrationMode.GPU_COMP,
                                      n_chunks=4096, window=1024,
                                      gpu_comp_batch=256,
                                      gpu_index_batch=256)
        assert gpu_comp.speedup_over(cpu_only) > 1.3

    def test_dedup_only_faster_than_integrated(self):
        dedup_only, _, _ = run_pipeline(IntegrationMode.CPU_ONLY,
                                        n_chunks=4096,
                                        enable_compression=False)
        integrated, _, _ = run_pipeline(IntegrationMode.CPU_ONLY,
                                        n_chunks=4096)
        assert dedup_only.iops > integrated.iops * 1.5

    def test_high_ratio_compresses_faster_on_cpu(self):
        def run_ratio(ratio):
            config = PipelineConfig(mode=IntegrationMode.CPU_ONLY,
                                    enable_dedup=False)
            pipeline = build_pipeline(config)
            stream = VdbenchStream(dedup_ratio=1.0, comp_ratio=ratio,
                                   seed=5)
            return pipeline.run(stream.chunks(2048), total=2048)

        assert run_ratio(4.0).iops > run_ratio(1.2).iops * 1.15


class TestConfigKnobs:
    def test_arrival_pacing_caps_throughput(self):
        paced, _, _ = run_pipeline(IntegrationMode.CPU_ONLY,
                                   n_chunks=1024,
                                   arrival_rate_iops=10e3)
        assert paced.iops == pytest.approx(10e3, rel=0.05)
        # Well below saturation, latency is per-chunk service time.
        assert paced.cpu_utilization < 0.5

    def test_latency_percentiles_reported(self):
        report, _, _ = run_pipeline(IntegrationMode.CPU_ONLY,
                                    n_chunks=1024)
        p = report.latency_percentiles
        assert p["p50"] <= p["p99"] <= p["max"]
        assert report.mean_latency_s == pytest.approx(p["mean"])

    def test_invalid_policy_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            PipelineConfig(gpu_index_policy="whenever")

    def test_invalid_locking_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            PipelineConfig(index_locking="mutexes")


def test_gpu_mode_without_gpu_spec_is_a_config_error():
    with pytest.raises(ConfigError, match="needs a GPU"):
        run_mode(IntegrationMode.GPU_COMP, 16, gpu_spec=None)
    env = Environment()
    for mode in (IntegrationMode.GPU_DEDUP, IntegrationMode.GPU_BOTH):
        with pytest.raises(ConfigError, match="needs a GPU"):
            ReductionPipeline(env, PipelineConfig(mode=mode),
                              cpu=SimCpu(env), ssd=SsdModel(env))
