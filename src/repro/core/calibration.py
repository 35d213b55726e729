"""Dummy-I/O calibration (paper §4(3), closing paragraph).

"Because hardware specifications may be different on different platforms,
we cannot guarantee that this integration is always right.  Therefore,
before assigning processors to each data reduction operation, the
performance of these integration methods is compared using dummy I/O."

:func:`calibrate_mode` runs a short synthetic stream through every
integration mode on the *given* hardware specs and returns the ranking.
The A5 benchmark uses it to show the chooser picking different winners on
different platforms (weak GPU -> CPU_ONLY, the testbed -> GPU_COMP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import PipelineConfig
from repro.core.modes import IntegrationMode
from repro.core.pipeline import ReductionPipeline
from repro.core.stats import PipelineReport
from repro.cpu.costs import CpuCosts, DEFAULT_COSTS
from repro.cpu.model import CpuSpec, I7_2600K, SimCpu
from repro.gpu.costs import DEFAULT_GPU_COSTS, GpuKernelCosts
from repro.gpu.device import GpuDevice, GpuSpec, RADEON_HD_7970
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim import Environment
from repro.storage.ssd import SAMSUNG_SSD_830, SsdModel, SsdSpec
from repro.workload.vdbench import VdbenchStream


@dataclass
class CalibrationResult:
    """Ranking of the integration modes on one platform."""

    best_mode: IntegrationMode
    iops_by_mode: dict[IntegrationMode, float]
    dummy_chunks: int

    def speedup_over_cpu_only(self) -> float:
        """Best mode's advantage over the no-GPU baseline."""
        cpu_only = self.iops_by_mode.get(IntegrationMode.CPU_ONLY, 0.0)
        if cpu_only <= 0:
            return float("inf")
        return self.iops_by_mode[self.best_mode] / cpu_only

    def table(self) -> str:
        """Formatted per-mode ranking."""
        lines = [f"{'mode':<12} {'K IOPS':>10}"]
        for mode in IntegrationMode.all_modes():
            if mode in self.iops_by_mode:
                marker = "  <-- best" if mode is self.best_mode else ""
                lines.append(f"{mode.value:<12} "
                             f"{self.iops_by_mode[mode] / 1e3:>10.1f}"
                             f"{marker}")
        return "\n".join(lines)


def run_stream(stream, n_chunks: int, config: PipelineConfig,
               cpu_spec: CpuSpec = I7_2600K,
               gpu_spec: Optional[GpuSpec] = RADEON_HD_7970,
               ssd_spec: SsdSpec = SAMSUNG_SSD_830,
               cpu_costs: CpuCosts = DEFAULT_COSTS,
               gpu_costs: GpuKernelCosts = DEFAULT_GPU_COSTS,
               tracer: Optional[Tracer] = None
               ) -> tuple[ReductionPipeline, PipelineReport]:
    """Run ``n_chunks`` of ``stream`` on a fresh simulated platform.

    The one place a pipeline run's platform is built: environment, CPU,
    GPU (when ``gpu_spec`` is given), SSD, then the pipeline over them,
    in that order.  ``tracer`` (a :class:`~repro.obs.SimTracer`) is
    bound to the run's environment and threaded through every timed
    subsystem; the default is the zero-cost null tracer.

    Returns the finished pipeline and its report.
    """
    mode = config.mode
    if gpu_spec is None and (mode.gpu_for_dedup
                             or mode.gpu_for_compression):
        raise ValueError(f"mode {mode.value} needs a GPU spec")
    if tracer is None:
        tracer = NULL_TRACER
    env = Environment()
    tracer.bind(env)
    cpu = SimCpu(env, cpu_spec)
    gpu = (GpuDevice(env, gpu_spec, tracer=tracer)
           if gpu_spec is not None else None)
    ssd = SsdModel(env, ssd_spec, tracer=tracer)
    pipeline = ReductionPipeline(env, config, cpu=cpu, gpu=gpu, ssd=ssd,
                                 cpu_costs=cpu_costs, gpu_costs=gpu_costs,
                                 tracer=tracer)
    source = stream.chunks_batched(n_chunks, config.functional_batch)
    return pipeline, pipeline.run(source, total=n_chunks)


def run_mode(mode: IntegrationMode, n_chunks: int,
             base_config: Optional[PipelineConfig] = None,
             cpu_spec: CpuSpec = I7_2600K,
             gpu_spec: Optional[GpuSpec] = RADEON_HD_7970,
             ssd_spec: SsdSpec = SAMSUNG_SSD_830,
             cpu_costs: CpuCosts = DEFAULT_COSTS,
             gpu_costs: GpuKernelCosts = DEFAULT_GPU_COSTS,
             dedup_ratio: float = 2.0, comp_ratio: float = 2.0,
             seed: int = 1234, tracer: Optional[Tracer] = None,
             payload: bool = False):
    """Run one integration mode over a vdbench stream (:func:`run_stream`).

    ``payload`` switches the workload to real bytes (the functional
    data plane: hashing, codecs) instead of descriptors.

    Returns the :class:`~repro.core.stats.PipelineReport`.
    """
    config = (base_config or PipelineConfig()).with_overrides(mode=mode)
    stream = VdbenchStream(dedup_ratio=dedup_ratio, comp_ratio=comp_ratio,
                           chunk_size=config.chunk_size, seed=seed,
                           payload=payload)
    _, report = run_stream(
        stream, n_chunks, config, cpu_spec=cpu_spec, gpu_spec=gpu_spec,
        ssd_spec=ssd_spec, cpu_costs=cpu_costs, gpu_costs=gpu_costs,
        tracer=tracer)
    return report


def calibrate_mode(base_config: Optional[PipelineConfig] = None,
                   cpu_spec: CpuSpec = I7_2600K,
                   gpu_spec: Optional[GpuSpec] = RADEON_HD_7970,
                   ssd_spec: SsdSpec = SAMSUNG_SSD_830,
                   cpu_costs: CpuCosts = DEFAULT_COSTS,
                   gpu_costs: GpuKernelCosts = DEFAULT_GPU_COSTS,
                   dummy_chunks: int = 8192,
                   dedup_ratio: float = 2.0, comp_ratio: float = 2.0,
                   seed: int = 1234) -> CalibrationResult:
    """Rank every integration mode with a dummy-I/O pass; pick the best."""
    modes = list(IntegrationMode.all_modes())
    if gpu_spec is None:
        modes = [IntegrationMode.CPU_ONLY]
    iops: dict[IntegrationMode, float] = {}
    for mode in modes:
        report = run_mode(mode, dummy_chunks, base_config=base_config,
                          cpu_spec=cpu_spec, gpu_spec=gpu_spec,
                          ssd_spec=ssd_spec, cpu_costs=cpu_costs,
                          gpu_costs=gpu_costs, dedup_ratio=dedup_ratio,
                          comp_ratio=comp_ratio, seed=seed)
        iops[mode] = report.iops
    best = max(iops, key=iops.get)
    return CalibrationResult(best_mode=best, iops_by_mode=iops,
                             dummy_chunks=dummy_chunks)
