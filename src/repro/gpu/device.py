"""The timed GPU device: command queue, launch overheads, kernel timing.

:class:`GpuDevice` serializes work through a single in-order command queue
(the 2012-era OpenCL runtime the paper's testbed used had exactly that
behaviour), charges a fixed launch overhead plus a host sync overhead per
kernel, prices PCIe transfers through :class:`~repro.gpu.pcie.PcieLink`,
and converts each kernel's :class:`~repro.gpu.kernel.KernelCost` into
simulated time using the device's lane count, occupancy, clock and memory
bandwidth.

The in-order queue is a load-bearing modelling choice: when deduplication
*and* compression both use the GPU (integration mode ``GPU_BOTH``),
latency-sensitive index lookups queue behind multi-millisecond compression
batches — the contention that makes ``GPU_COMP`` the winning mode in the
paper's Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import ConfigError
from repro.gpu.kernel import Kernel, KernelCost
from repro.gpu.memory import DeviceMemory
from repro.gpu.pcie import PcieLink
from repro.obs.stages import TRACK_GPU_QUEUE
from repro.obs.tracer import SimTracer
from repro.sim import Environment, Resource, UtilizationMonitor


@dataclass(frozen=True)
class GpuSpec:
    """Static description of a GPU."""

    name: str
    compute_units: int
    lanes_per_cu: int
    freq_hz: float
    mem_bandwidth_bps: float
    mem_capacity_bytes: int
    #: Fixed host-side cost to get a kernel running (driver + doorbell).
    launch_overhead_s: float
    #: Fixed host-visible completion cost (sync, event readback).
    sync_overhead_s: float
    #: Fraction of theoretical lanes a real-world kernel keeps busy
    #: (register pressure, scheduling gaps).
    occupancy: float = 0.25

    def __post_init__(self) -> None:
        if min(self.compute_units, self.lanes_per_cu) < 1:
            raise ConfigError("invalid lane geometry")
        if min(self.freq_hz, self.mem_bandwidth_bps,
               self.mem_capacity_bytes) <= 0:
            raise ConfigError("invalid rates/capacity")
        if not 0.0 < self.occupancy <= 1.0:
            raise ConfigError(f"invalid occupancy {self.occupancy}")
        if min(self.launch_overhead_s, self.sync_overhead_s) < 0:
            raise ConfigError("negative overheads")

    @property
    def total_lanes(self) -> int:
        """Raw SIMD lane count."""
        return self.compute_units * self.lanes_per_cu

    @property
    def effective_lanes(self) -> float:
        """Lanes the timing model assumes are doing useful work."""
        return self.total_lanes * self.occupancy


#: The paper's testbed GPU (Tahiti XT: 32 CUs x 64 lanes @ 925 MHz, 3 GiB).
RADEON_HD_7970 = GpuSpec(
    name="AMD Radeon HD 7970",
    compute_units=32,
    lanes_per_cu=64,
    freq_hz=925e6,
    mem_bandwidth_bps=264e9,
    mem_capacity_bytes=3 * 1024**3,
    launch_overhead_s=55e-6,
    sync_overhead_s=65e-6,
    occupancy=0.25,
)


@dataclass
class LaunchRecord:
    """One completed kernel launch, for traces and utilization reports."""

    name: str
    submit_time: float
    start_time: float
    end_time: float
    queue_wait: float
    kernel_time: float


class GpuDevice:
    """A GPU attached to a simulation environment."""

    def __init__(self, env: Environment, spec: GpuSpec = RADEON_HD_7970,
                 tracer: Optional[SimTracer] = None):
        self.env = env
        self.spec = spec
        self.tracer = tracer
        self.queue = Resource(env, capacity=1, name="gpu-queue")
        #: Each launch's ``[start, end]`` on the queue, booked as it ends.
        self.monitor = UtilizationMonitor(env, 1)
        self.memory = DeviceMemory(spec.mem_capacity_bytes)
        self.pcie = PcieLink()
        self.launches: list[LaunchRecord] = []
        self.kernels_launched = 0

    # -- timing ------------------------------------------------------------

    def kernel_time(self, cost: KernelCost) -> float:
        """Simulated execution time of a kernel with the given footprint."""
        lanes = min(self.spec.effective_lanes, float(cost.threads))
        compute = cost.lane_cycles_total / (lanes * self.spec.freq_hz)
        memory = (cost.bytes_read + cost.bytes_written) / \
            self.spec.mem_bandwidth_bps
        critical = cost.critical_path_cycles / self.spec.freq_hz
        return max(compute, memory, critical)

    def launch_time(self, kernel: Kernel) -> float:
        """End-to-end time of one launch excluding queueing: overheads,
        PCIe in, kernel, PCIe out."""
        return (self.spec.launch_overhead_s
                + self.pcie.transfer_time(kernel.bytes_in())
                + self.kernel_time(kernel.cost())
                + self.pcie.transfer_time(kernel.bytes_out())
                + self.spec.sync_overhead_s)

    # -- simulation processes ------------------------------------------------

    def launch(self, kernel: Kernel) -> Generator:
        """Process body: run ``kernel`` through the command queue.

        Returns the kernel's functional result.  Usage::

            result = yield from gpu.launch(my_kernel)
        """
        submit = self.env.now
        with self.queue.request() as req:
            yield req
            start = self.env.now
            result = kernel.execute()
            duration = self.launch_time(kernel)
            self.pcie.record(kernel.bytes_in(), to_device=True)
            self.pcie.record(kernel.bytes_out(), to_device=False)
            yield self.env.timeout(duration)
            end = self.env.now
            self.monitor.book(start, end)
            self.kernels_launched += 1
            record = LaunchRecord(
                name=kernel.name,
                submit_time=submit,
                start_time=start,
                end_time=end,
                queue_wait=start - submit,
                kernel_time=duration,
            )
            self.launches.append(record)
            if self.tracer is not None:
                # Occupancy span only ([start, end]); the submit->start
                # wait would overlap the previous launch's slice on the
                # serialized queue track, so it rides along as an attr.
                attrs = kernel.describe()
                attrs["queue_wait_s"] = record.queue_wait
                self.tracer.record(
                    kernel.name, None, start=start,
                    end=end, resource=TRACK_GPU_QUEUE,
                    attrs=attrs)
        return result

    # -- reporting --------------------------------------------------------

    def utilization(self, until: Optional[float] = None) -> float:
        """Booked launch seconds so far ÷ time to ``until``.

        A demand ratio, not the fraction of that time the queue was
        busy: read after the shutdown drain, kernels run past ``until``
        count too, so it can exceed 1."""
        return self.monitor.utilization(until)

    def mean_queue_wait(self) -> float:
        """Mean time launches spent waiting behind other work."""
        if not self.launches:
            return 0.0
        return sum(l.queue_wait for l in self.launches) / len(self.launches)

    def __repr__(self) -> str:
        return (f"<GpuDevice {self.spec.name}: {self.spec.compute_units} CUs, "
                f"{self.kernels_launched} launches>")
