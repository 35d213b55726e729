"""When-to-use-GPU decisions (paper §3.1(3) and §3.2(3)).

The paper's placement rules are asymmetric:

* **indexing** — "we decide to use GPU only when CPU utilization is full
  and there is still some work to do for indexing": a per-batch dynamic
  decision, because the CPU wins small batches outright;
* **compression** — "the GPU performs compression and the CPU is used
  for refinement": a static assignment made once (by Fig. 2 /
  calibration), because the GPU wins by ~1.9x regardless of load.

:class:`OffloadScheduler` owns the dynamic indexing decision plus its
statistics, and carries the policy overrides used by the related-work
baselines ("always" = GHOST-class, "never" = CPU-pure).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.model import SimCpu
from repro.errors import ConfigError

#: Valid indexing-offload policies.
POLICIES = ("saturation", "always", "never")


@dataclass
class SchedulerStats:
    """Decision counters for reporting."""

    offloaded: int = 0
    kept_local: int = 0
    skipped_idle_cpu: int = 0

    def as_counters(self) -> dict[str, int]:
        """Flat counter mapping for the metrics registry."""
        return {
            "offloaded": self.offloaded,
            "kept_local": self.kept_local,
            "skipped_idle_cpu": self.skipped_idle_cpu,
        }


class OffloadScheduler:
    """Per-chunk indexing-placement decisions."""

    def __init__(self, cpu: SimCpu, policy: str = "saturation",
                 gpu_available: bool = True):
        if policy not in POLICIES:
            raise ConfigError(f"unknown offload policy {policy!r}")
        self.cpu = cpu
        self.policy = policy
        self.gpu_available = gpu_available
        self.stats = SchedulerStats()

    def should_offload_index(self) -> bool:
        """Decide the current chunk's index placement."""
        if not self.gpu_available or self.policy == "never":
            self.stats.kept_local += 1
            return False
        if self.policy == "always":
            self.stats.offloaded += 1
            return True
        if self.cpu.is_saturated():
            self.stats.offloaded += 1
            return True
        self.stats.kept_local += 1
        self.stats.skipped_idle_cpu += 1
        return False
