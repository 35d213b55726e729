"""Unit tests for the CPU spec, cost table and timed charges."""

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

    def test_bin_tree_probe_scales_with_levels(self):
        costs = DEFAULT_COSTS
        assert costs.bin_tree_probe(8) > costs.bin_tree_probe(2)


class TestSimCpu:
    def test_seconds_conversion(self):
        """A charge of ``cycles`` on an idle thread ends ``cycles /
        thread_hz`` seconds after it is made, at that float exactly."""
        env = Environment()
        cpu = SimCpu(env)
        cycles = cpu.spec.thread_hz  # exactly one second of work
        ends = []

        def task():
            yield env.timeout(0.25)
            yield cpu.charge(cycles)
            ends.append(env.now)

        env.process(task())
        env.run()
        assert ends == [0.25 + cycles / cpu.spec.thread_hz] == [1.25]

    def test_negative_cycles_rejected(self):
        env = Environment()
        cpu = SimCpu(env)
        with pytest.raises(ConfigError, match="negative cycle count"):
            cpu.charge(-1)

    def test_a_charge_stops_counting_before_its_holder_resumes(self):
        env = Environment()
        cpu = SimCpu(env, CpuSpec(name="one", cores=1, threads=1,
                                  freq_hz=1e9))
        seen = []

        def first():
            yield cpu.charge(1e9)
            seen.append(("first resumed", cpu.outstanding,
                         cpu.is_saturated()))

        def second():
            yield cpu.charge(1e9)
            seen.append(("second resumed at", env.now))

        env.process(first())
        env.process(second())
        env.run()
        # The second charge holds the one thread when the first resumes.
        assert seen == [("first resumed", 1, True),
                        ("second resumed at", 2.0)]

    def test_a_charge_resumes_its_holder_with_none(self):
        """Granted at once or queued, a charge carries no value."""
        env = Environment()
        cpu = SimCpu(env, CpuSpec(name="one", cores=1, threads=1,
                                  freq_hz=1e9))
        got = []

        def holder(name):
            got.append((name, (yield cpu.charge(1e9)), env.now))

        env.process(holder("at once"))
        env.process(holder("queued"))
        env.run()
        assert got == [("at once", None, 1.0), ("queued", None, 2.0)]
        with pytest.raises(TypeError):
            cpu.charge(1.0, 4096)
        env.finish_check()

    def test_rejected_charge_leaves_the_ledger_alone(self):
        """A refused charge must not move ``cycles_charged``: validation
        comes before the ledger."""
        env = Environment()
        cpu = SimCpu(env)
        with pytest.raises(ConfigError):
            cpu.charge(-1)
        assert cpu.cycles_charged == 0.0 and cpu.outstanding == 0
        assert cpu.utilization(1.0) == 0.0  # no thread was booked
        env.finish_check()  # and nothing was scheduled

    def test_non_finite_cycles_rejected_before_the_ledger(self):
        """NaN passes a ``< 0`` check; it must not reach the ledger,
        whose end instant would then put the clock at NaN."""
        env = Environment()
        cpu = SimCpu(env)
        heap = [list(server) for server in cpu.ledger._heap]
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="non-finite cycle count"):
                cpu.charge(bad)
        assert cpu.ledger._heap == heap
        assert cpu.cycles_charged == 0.0 and cpu.outstanding == 0
        env.run()
        assert env.now == 0.0
        env.finish_check()

    def test_parallel_tasks_overlap(self):
        env = Environment()
        cpu = SimCpu(env)
        one_second = cpu.spec.thread_hz

        def task():
            yield cpu.charge(one_second)

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
            yield cpu.charge(one_second)

        for _ in range(cpu.spec.threads * 2):
            env.process(task())
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_utilization_under_full_load(self):
        env = Environment()
        cpu = SimCpu(env)

        def task():
            yield cpu.charge(cpu.spec.thread_hz)

        for _ in range(cpu.spec.threads):
            env.process(task())
        env.run()
        assert cpu.utilization() == pytest.approx(1.0)

    def test_is_saturated_signal(self):
        env = Environment()
        cpu = SimCpu(env)
        saturation_seen = []

        def worker():
            yield cpu.charge(cpu.spec.thread_hz)

        def probe():
            yield env.timeout(0.5)
            saturation_seen.append(cpu.is_saturated())

        for _ in range(cpu.spec.threads):
            env.process(worker())
        env.process(probe())
        env.run()
        assert saturation_seen == [True]
        assert not cpu.is_saturated()

    @pytest.mark.parametrize("fraction,saturated",
                             [(0.0, False), (0.5, False), (1.0, True)])
    def test_saturation_by_busy_fraction(self, fraction, saturated):
        """Saturated means every thread is busy, not most of them."""
        env = Environment()
        cpu = SimCpu(env)

        def hog():
            yield cpu.charge(100.0 * cpu.spec.thread_hz)

        for _ in range(int(cpu.spec.threads * fraction)):
            env.process(hog())
        env.run(until=env.timeout(1.0))
        assert cpu.is_saturated() is saturated

    def test_saturated_only_while_every_thread_is_busy(self):
        """Load grows one thread at a time, then the first thread frees:
        only the instants with every thread busy are saturated."""
        env = Environment()
        cpu = SimCpu(env)
        threads = cpu.spec.threads

        def hog(seconds):
            yield cpu.charge(seconds * cpu.spec.thread_hz)

        probes = []
        for seconds in range(1, threads + 1):
            probes.append(cpu.is_saturated())
            env.process(hog(float(seconds)))
        probes.append(cpu.is_saturated())
        env.run(until=env.timeout(0.5))  # every thread still busy
        probes.append(cpu.is_saturated())
        env.run(until=env.timeout(1.0))  # the 1 s hog ended at 1 s
        probes.append(cpu.is_saturated())
        assert probes == [False] * threads + [True, True, False]

    def test_cycles_charged_accumulates(self):
        env = Environment()
        cpu = SimCpu(env)

        def task():
            yield cpu.charge(1000.0)

        env.process(task())
        env.process(task())
        env.run()
        assert cpu.cycles_charged == pytest.approx(2000.0)

    def test_throughput_matches_chip_rate(self):
        """N tasks of C cycles on T threads finish in N*C/(T*thread_hz) s."""
        env = Environment()
        cpu = SimCpu(env)
        n_tasks, cycles = 64, 1.0e9

        def task():
            yield cpu.charge(cycles)

        for _ in range(n_tasks):
            env.process(task())
        env.run()
        expected = n_tasks * cycles / (cpu.spec.threads * cpu.spec.thread_hz)
        assert env.now == pytest.approx(expected)
