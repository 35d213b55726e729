"""Unit tests for the GPU device model, memory and PCIe."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigError, GpuMemoryError
from repro.gpu import (
    DeviceMemory,
    GpuDevice,
    GpuSpec,
    Kernel,
    KernelCost,
    PcieLink,
    PcieSpec,
    RADEON_HD_7970,
)
from repro.sim import Environment
from tests.reference_paths import LevelResource


class TestGpuSpec:
    def test_testbed_lane_count(self):
        assert RADEON_HD_7970.total_lanes == 2048

    def test_effective_lanes_respect_occupancy(self):
        assert RADEON_HD_7970.effective_lanes == pytest.approx(2048 * 0.25)

    def test_invalid_occupancy_rejected(self):
        with pytest.raises(ConfigError):
            GpuSpec(name="x", compute_units=1, lanes_per_cu=1, freq_hz=1e9,
                    mem_bandwidth_bps=1e9, mem_capacity_bytes=1024,
                    launch_overhead_s=0.0, sync_overhead_s=0.0,
                    occupancy=0.0)


class TestDeviceMemory:
    def test_alloc_and_free_track_usage(self):
        mem = DeviceMemory(1024)
        buf = mem.alloc(512, "a")
        assert mem.used_bytes == 512
        buf.free()
        assert mem.used_bytes == 0
        assert mem.peak_bytes == 512

    def test_oom_raises(self):
        mem = DeviceMemory(1024)
        mem.alloc(1000, "big")
        with pytest.raises(GpuMemoryError, match="out of device memory"):
            mem.alloc(100, "too much")

    def test_use_after_free_raises(self):
        mem = DeviceMemory(1024)
        buf = mem.alloc(100, "x")
        buf.free()
        with pytest.raises(GpuMemoryError, match="use after free"):
            buf.free()

    def test_double_free_raises(self):
        mem = DeviceMemory(1024)
        buf = mem.alloc(100, "x")
        mem._release(buf)
        with pytest.raises(GpuMemoryError, match="double free"):
            buf.free()


class TestPcie:
    def test_zero_bytes_is_free(self):
        link = PcieLink()
        assert link.transfer_time(0) == 0.0

    def test_small_transfer_latency_bound(self):
        link = PcieLink()
        tiny = link.transfer_time(64)
        assert tiny >= link.spec.setup_latency_s
        assert tiny < 2 * link.spec.setup_latency_s

    def test_large_transfer_bandwidth_bound(self):
        link = PcieLink()
        one_gig = link.transfer_time(int(link.spec.bandwidth_bps))
        assert one_gig == pytest.approx(1.0 + link.spec.setup_latency_s)

    def test_negative_size_rejected(self):
        link = PcieLink()
        with pytest.raises(ConfigError):
            link.transfer_time(-1)

    def test_traffic_accounting(self):
        link = PcieLink()
        link.record(100, to_device=True)
        link.record(40, to_device=False)
        assert link.bytes_to_device == 100
        assert link.bytes_from_device == 40
        assert link.transfer_count == 2


class _NoopKernel(Kernel):
    name = "noop"

    def __init__(self, threads=64, lane_cycles=64e3, critical=1e3,
                 read=0.0, written=0.0, nbytes_in=0, nbytes_out=0):
        self._cost = KernelCost(
            name=self.name, threads=threads, lane_cycles_total=lane_cycles,
            critical_path_cycles=critical, bytes_read=read,
            bytes_written=written)
        self._in = nbytes_in
        self._out = nbytes_out

    def execute(self):
        return "ran"

    def cost(self):
        return self._cost

    def bytes_in(self):
        return self._in

    def bytes_out(self):
        return self._out


class TestGpuDevice:
    def _launch(self, device, kernel):
        env = device.env
        result = {}

        def proc():
            result["value"] = yield from device.launch(kernel)

        env.process(proc())
        env.run()
        return result["value"]

    def test_launch_returns_functional_result(self):
        env = Environment()
        gpu = GpuDevice(env)
        assert self._launch(gpu, _NoopKernel()) == "ran"
        assert gpu.kernels_launched == 1

    def test_launch_charges_at_least_fixed_overheads(self):
        env = Environment()
        gpu = GpuDevice(env)
        self._launch(gpu, _NoopKernel(lane_cycles=0.0, critical=0.0))
        floor = gpu.spec.launch_overhead_s + gpu.spec.sync_overhead_s
        assert env.now >= floor

    def test_compute_bound_kernel_time(self):
        env = Environment()
        gpu = GpuDevice(env)
        lanes = gpu.spec.effective_lanes
        cost = KernelCost(name="k", threads=10**6,
                          lane_cycles_total=lanes * gpu.spec.freq_hz,
                          critical_path_cycles=0.0,
                          bytes_read=0.0, bytes_written=0.0)
        assert gpu.kernel_time(cost) == pytest.approx(1.0)

    def test_memory_bound_kernel_time(self):
        env = Environment()
        gpu = GpuDevice(env)
        cost = KernelCost(name="k", threads=10**6,
                          lane_cycles_total=0.0, critical_path_cycles=0.0,
                          bytes_read=gpu.spec.mem_bandwidth_bps,
                          bytes_written=0.0)
        assert gpu.kernel_time(cost) == pytest.approx(1.0)

    def test_latency_floor_binds_small_launches(self):
        """A single-thread kernel cannot go faster than its serial chain."""
        env = Environment()
        gpu = GpuDevice(env)
        cost = KernelCost(name="k", threads=1,
                          lane_cycles_total=1e6, critical_path_cycles=1e6,
                          bytes_read=0.0, bytes_written=0.0)
        assert gpu.kernel_time(cost) == pytest.approx(1e6 / gpu.spec.freq_hz)

    def test_queue_serializes_launches(self):
        env = Environment()
        gpu = GpuDevice(env)
        kernel = _NoopKernel(lane_cycles=0.0, critical=gpu.spec.freq_hz)

        def proc():
            yield from gpu.launch(kernel)

        env.process(proc())
        env.process(proc())
        env.run()
        per_launch = gpu.launch_time(kernel)
        assert env.now == pytest.approx(2 * per_launch)
        assert gpu.launches[1].queue_wait == pytest.approx(per_launch)

    def test_pcie_costs_included_in_launch(self):
        env = Environment()
        gpu = GpuDevice(env)
        with_io = gpu.launch_time(_NoopKernel(nbytes_in=10**6,
                                              nbytes_out=10**6))
        without_io = gpu.launch_time(_NoopKernel())
        assert with_io > without_io


# -- GPU utilisation: booked launches vs the queue's level curve -------------

_GPU_TICK = 3.7e-5  # not exactly representable: the float paths must agree
#: One launch: its submitter, the idle gap before it (in ticks) and its
#: kernel's serial chain (in cycles; 0 leaves the fixed overheads).
_LAUNCH = st.tuples(st.sampled_from((0, 1)),
                    st.sampled_from((0, 0, 0, 1, 3, 40)),
                    st.sampled_from((0.0, 1e3, 5e4, 2e5)))


def _play_launches(script, oracle: bool):
    """Two submitters, each launching its share of ``script`` in turn;
    returns the last instant, a ``utilization(until)`` reader and the
    mean queue wait.  The oracle holds a level-curve queue for each
    launch's time instead of launching."""
    env = Environment()
    gpu = GpuDevice(env)
    queue = LevelResource(env, capacity=1, name="gpu-queue")
    waits = []

    def launch(kernel):
        if not oracle:
            yield from gpu.launch(kernel)
            return
        submit = env.now
        with queue.request() as req:
            yield req
            start = env.now
            yield env.timeout(gpu.launch_time(kernel))
            waits.append(start - submit)

    def submitter(launches):
        yield env.timeout(_GPU_TICK)  # so there is a "before" to measure
        for gap, critical in launches:
            yield env.timeout(gap * _GPU_TICK)
            yield from launch(_NoopKernel(lane_cycles=0.0,
                                          critical=critical))

    for who in (0, 1):
        env.process(submitter([(gap, critical)
                               for by, gap, critical in script
                               if by == who]))
    env.run()
    env.finish_check()
    if oracle:
        return env.now, queue.monitor.utilization, sum(waits) / len(waits)
    return env.now, gpu.utilization, gpu.mean_queue_wait()


@settings(max_examples=200, deadline=None)
@given(script=st.lists(_LAUNCH, min_size=1, max_size=12))
@example(script=[(0, 0, 1e3), (1, 0, 1e3)])  # equal-time submits: a handoff
@example(script=[(0, 0, 1e3), (0, 40, 0.0), (1, 1, 2e5)])  # an idle gap
def test_gpu_utilization_is_the_queue_level_curve(script):
    """The GPU books each launch's ``[start, end]``; the sum equals the
    command queue's level curve bit for bit at every ``until`` — before,
    inside and after the busy period — because a handoff's ``end`` and
    the next ``start`` are one float.  Queue waits agree too."""
    end, utilization, wait = _play_launches(script, oracle=False)
    want_end, want_utilization, want_wait = _play_launches(script,
                                                           oracle=True)
    assert end == want_end
    assert wait == want_wait
    for until in (_GPU_TICK / 2, end / 2, end, 2 * end):
        assert utilization(until) == want_utilization(until)
