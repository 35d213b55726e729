"""Tests for SSD read-retry error injection."""

import pytest

from repro.errors import ConfigError
from repro.sim import Environment
from repro.storage import BlockRequest, RequestKind, SAMSUNG_SSD_830, SsdModel
from repro.storage.ssd import SsdSpec
from dataclasses import replace


def flaky_spec(probability):
    return replace(SAMSUNG_SSD_830, read_retry_probability=probability)


def run_reads(spec, n=200, seed=1):
    env = Environment()
    ssd = SsdModel(env, spec, seed=seed)

    def reader():
        for _ in range(n):
            yield from ssd.submit(BlockRequest(RequestKind.READ, 0, 4096))

    env.process(reader())
    env.run()
    return env, ssd


class TestReadRetries:
    def test_clean_device_never_retries(self):
        env, ssd = run_reads(SAMSUNG_SSD_830)
        assert ssd.read_retries == 0

    def test_flaky_device_retries_and_slows(self):
        clean_env, _ = run_reads(SAMSUNG_SSD_830)
        flaky_env, flaky = run_reads(flaky_spec(0.2))
        assert flaky.read_retries > 10
        assert flaky_env.now > clean_env.now * 1.2

    def test_retry_rate_tracks_probability(self):
        _, mild = run_reads(flaky_spec(0.05), n=1000)
        _, severe = run_reads(flaky_spec(0.30), n=1000)
        assert severe.read_retries > mild.read_retries * 3

    def test_writes_unaffected(self):
        env = Environment()
        ssd = SsdModel(env, flaky_spec(0.5))

        def writer():
            for _ in range(100):
                yield ssd.write(BlockRequest(RequestKind.WRITE, 0, 4096))

        env.process(writer())
        env.run()
        assert ssd.read_retries == 0

    def test_deterministic_under_seed(self):
        _, a = run_reads(flaky_spec(0.2), seed=7)
        _, b = run_reads(flaky_spec(0.2), seed=7)
        assert a.read_retries == b.read_retries

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigError):
            flaky_spec(1.0)
        with pytest.raises(ConfigError):
            flaky_spec(-0.1)
