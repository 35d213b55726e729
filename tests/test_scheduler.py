"""Tests for the offload scheduler."""

import pytest

from repro.core.scheduler import OffloadScheduler
from repro.cpu import SimCpu
from repro.errors import ConfigError
from repro.sim import Environment


def busy_cpu(env, fraction=1.0):
    cpu = SimCpu(env)
    n = int(cpu.spec.threads * fraction)

    def hog():
        yield cpu.charge(100.0 * cpu.spec.thread_hz)

    for _ in range(n):
        env.process(hog())
    env.run(until=env.timeout(1.0))
    return cpu


class TestOffloadScheduler:
    def test_saturated_cpu_offloads(self):
        env = Environment()
        cpu = busy_cpu(env)
        scheduler = OffloadScheduler(cpu)
        assert scheduler.should_offload_index() is True
        assert scheduler.stats.offloaded == 1

    def test_idle_cpu_keeps_local(self):
        env = Environment()
        cpu = SimCpu(env)
        scheduler = OffloadScheduler(cpu)
        assert scheduler.should_offload_index() is False
        assert scheduler.stats.skipped_idle_cpu == 1

    def test_partially_busy_cpu_keeps_local(self):
        env = Environment()
        cpu = busy_cpu(env, fraction=0.5)
        scheduler = OffloadScheduler(cpu)
        assert scheduler.should_offload_index() is False

    def test_offloads_only_while_every_thread_is_busy(self):
        """Load grows one thread at a time, then the first thread frees:
        only the instants with every thread busy offload."""
        env = Environment()
        cpu = SimCpu(env)
        threads = cpu.spec.threads
        scheduler = OffloadScheduler(cpu)

        def hog(seconds):
            yield cpu.charge(seconds * cpu.spec.thread_hz)

        decisions = []
        for seconds in range(1, threads + 1):
            decisions.append(scheduler.should_offload_index())
            env.process(hog(float(seconds)))
        decisions.append(scheduler.should_offload_index())
        env.run(until=env.timeout(0.5))  # every thread still busy
        decisions.append(scheduler.should_offload_index())
        env.run(until=env.timeout(1.0))  # the 1 s hog ended at 1 s
        decisions.append(scheduler.should_offload_index())
        assert decisions == [False] * threads + [True, True, False]
        assert (scheduler.stats.offloaded,
                scheduler.stats.kept_local) == (2, threads + 1)

    def test_always_policy(self):
        env = Environment()
        scheduler = OffloadScheduler(SimCpu(env), policy="always")
        assert scheduler.should_offload_index() is True

    def test_never_policy(self):
        env = Environment()
        cpu = busy_cpu(env)
        scheduler = OffloadScheduler(cpu, policy="never")
        assert scheduler.should_offload_index() is False

    def test_no_gpu_never_offloads(self):
        env = Environment()
        cpu = busy_cpu(env)
        scheduler = OffloadScheduler(cpu, gpu_available=False)
        assert scheduler.should_offload_index() is False

    def test_invalid_policy_rejected(self):
        env = Environment()
        with pytest.raises(ConfigError):
            OffloadScheduler(SimCpu(env), policy="sometimes")
