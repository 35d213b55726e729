"""Unit tests for the CPU spec, cost table and timed executor."""

import pytest

from repro.cpu import CpuCosts, CpuSpec, DEFAULT_COSTS, I7_2600K, SimCpu
from repro.errors import ConfigError
from repro.sim import Environment


class TestCpuSpec:
    def test_default_testbed_spec(self):
        assert I7_2600K.cores == 4
        assert I7_2600K.threads == 8
        assert I7_2600K.freq_hz == pytest.approx(3.4e9)

    def test_thread_hz_applies_smt_derate(self):
        assert I7_2600K.thread_hz == pytest.approx(3.4e9 * 0.65)

    def test_chip_hz_aggregates_threads(self):
        assert I7_2600K.chip_hz == pytest.approx(8 * 3.4e9 * 0.65)

    def test_no_smt_means_full_speed_threads(self):
        spec = CpuSpec(name="x", cores=4, threads=4, freq_hz=2.0e9)
        assert spec.thread_hz == pytest.approx(2.0e9)

    def test_invalid_threads_rejected(self):
        with pytest.raises(ConfigError):
            CpuSpec(name="x", cores=4, threads=2, freq_hz=1e9)

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ConfigError):
            CpuSpec(name="x", cores=1, threads=1, freq_hz=0.0)

    def test_invalid_derate_rejected(self):
        with pytest.raises(ConfigError):
            CpuSpec(name="x", cores=1, threads=2, freq_hz=1e9,
                    smt_derate=1.5)


class TestCpuCosts:
    def test_sha1_scales_with_bytes(self):
        costs = DEFAULT_COSTS
        small = costs.sha1_cycles(1024)
        large = costs.sha1_cycles(4096)
        assert large > small
        assert large - small == pytest.approx(costs.sha1_per_byte * 3072)

    def test_lz_encode_cheaper_at_high_ratio(self):
        costs = DEFAULT_COSTS
        assert (costs.lz_encode_cycles(4096, comp_ratio=4.0)
                < costs.lz_encode_cycles(4096, comp_ratio=1.2))

    def test_lz_encode_clamps_subunit_ratio(self):
        costs = DEFAULT_COSTS
        assert (costs.lz_encode_cycles(4096, comp_ratio=0.5)
                == costs.lz_encode_cycles(4096, comp_ratio=1.0))

    def test_postprocess_much_cheaper_than_encode(self):
        costs = DEFAULT_COSTS
        assert (costs.postprocess_cycles(4096)
                < 0.5 * costs.lz_encode_cycles(4096, comp_ratio=2.0))

    def test_with_overrides_returns_new_table(self):
        costs = DEFAULT_COSTS.with_overrides(sha1_per_byte=20.0)
        assert costs.sha1_per_byte == 20.0
        assert DEFAULT_COSTS.sha1_per_byte == 13.0  # calibrated default

    def test_bin_tree_probe_scales_with_levels(self):
        costs = DEFAULT_COSTS
        assert costs.bin_tree_probe(8) > costs.bin_tree_probe(2)


class TestSimCpu:
    def test_seconds_conversion(self):
        env = Environment()
        cpu = SimCpu(env)
        cycles = cpu.spec.thread_hz  # exactly one second of work
        assert cpu.seconds(cycles) == pytest.approx(1.0)

    def test_negative_cycles_rejected(self):
        env = Environment()
        cpu = SimCpu(env)
        with pytest.raises(ConfigError):
            cpu.seconds(-1)

    def test_rejected_charge_leaves_the_ledger_alone(self):
        """A refused charge must not move ``cycles_charged``: validation
        comes before the ledger, in ``charge`` and in ``execute``."""
        env = Environment()
        cpu = SimCpu(env)

        def bad_task():
            yield from cpu.execute(-1)

        env.process(bad_task())
        with pytest.raises(ConfigError):
            env.run()
        with pytest.raises(ConfigError):
            cpu.charge(-1)
        assert cpu.cycles_charged == 0.0
        env.finish_check()  # and no thread was claimed for either

    def test_parallel_tasks_overlap(self):
        env = Environment()
        cpu = SimCpu(env)
        one_second = cpu.spec.thread_hz

        def task():
            yield from cpu.execute(one_second)

        for _ in range(cpu.spec.threads):
            env.process(task())
        env.run()
        # All 8 threads run concurrently: makespan is 1 s, not 8 s.
        assert env.now == pytest.approx(1.0)

    def test_oversubscription_serializes(self):
        env = Environment()
        cpu = SimCpu(env)
        one_second = cpu.spec.thread_hz

        def task():
            yield from cpu.execute(one_second)

        for _ in range(cpu.spec.threads * 2):
            env.process(task())
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_utilization_under_full_load(self):
        env = Environment()
        cpu = SimCpu(env)

        def task():
            yield from cpu.execute(cpu.spec.thread_hz)

        for _ in range(cpu.spec.threads):
            env.process(task())
        env.run()
        assert cpu.utilization() == pytest.approx(1.0)

    def test_is_saturated_signal(self):
        env = Environment()
        cpu = SimCpu(env)
        saturation_seen = []

        def worker():
            yield from cpu.execute_for(1.0)

        def probe():
            yield env.timeout(0.5)
            saturation_seen.append(cpu.is_saturated())

        for _ in range(cpu.spec.threads):
            env.process(worker())
        env.process(probe())
        env.run()
        assert saturation_seen == [True]
        assert not cpu.is_saturated()

    def test_cycles_charged_accumulates(self):
        env = Environment()
        cpu = SimCpu(env)

        def task():
            yield from cpu.execute(1000.0)

        env.process(task())
        env.process(task())
        env.run()
        assert cpu.cycles_charged == pytest.approx(2000.0)

    def test_throughput_matches_chip_rate(self):
        """N tasks of C cycles on T threads finish in N*C/chip_hz seconds."""
        env = Environment()
        cpu = SimCpu(env)
        n_tasks, cycles = 64, 1.0e9

        def task():
            yield from cpu.execute(cycles)

        for _ in range(n_tasks):
            env.process(task())
        env.run()
        expected = n_tasks * cycles / cpu.spec.chip_hz
        assert env.now == pytest.approx(expected)
