"""Unit tests for the timed read pipeline."""

import pytest

from repro.core.readpath import ReadPipeline
from repro.errors import ConfigError, MetadataError
from repro.sim import Environment
from repro.storage import MetadataStore


def populated_store(n_chunks=32, compressed_size=2048):
    store = MetadataStore()
    for i in range(n_chunks):
        store.map_logical(i * 4096, store.store_unique(4096, compressed_size),
                          4096)
    return store


class TestReadPipeline:
    def test_serves_all_reads(self):
        env = Environment()
        pipeline = ReadPipeline(env, populated_store())
        report = pipeline.run([i * 4096 for i in range(32)])
        assert report.reads == 32
        assert report.bytes_served == 32 * 4096
        assert report.iops > 0

    def test_decompression_counted_for_compressed_chunks(self):
        env = Environment()
        pipeline = ReadPipeline(env, populated_store(compressed_size=2048))
        report = pipeline.run([0, 4096])
        assert report.decompressed == 2

    def test_raw_chunks_skip_decompression(self):
        env = Environment()
        pipeline = ReadPipeline(env, populated_store(compressed_size=4096))
        report = pipeline.run([0, 4096])
        assert report.decompressed == 0

    def test_decompression_costs_time(self):
        # A 2048-byte container and a 4096-byte raw chunk are both one
        # SSD page, so the only difference in time is the decode.
        def run(compressed_size):
            env = Environment()
            pipeline = ReadPipeline(
                env, populated_store(compressed_size=compressed_size),
                window=1)
            return pipeline.run([i * 4096 for i in range(16)])

        with_decode = run(2048)
        without_decode = run(4096)
        assert with_decode.decompressed == 16
        assert without_decode.decompressed == 0
        assert with_decode.duration_s > without_decode.duration_s

    def test_unmapped_offset_raises(self):
        env = Environment()
        pipeline = ReadPipeline(env, populated_store())
        with pytest.raises(MetadataError):
            pipeline.run([10**9])

    def test_empty_read_list_rejected(self):
        env = Environment()
        pipeline = ReadPipeline(env, populated_store())
        with pytest.raises(ConfigError):
            pipeline.run([])

    @pytest.mark.parametrize("first, second", [(32, 16), (16, 32)])
    def test_second_run_rejected(self, first, second):
        # A second call would reuse the first run's clock and fired
        # completion event: a stale report, or a bare engine error.
        pipeline = ReadPipeline(Environment(), populated_store())
        report = pipeline.run([i * 4096 for i in range(first)])
        assert report.reads == first
        with pytest.raises(ConfigError, match="single-shot"):
            pipeline.run([i * 4096 for i in range(second)])

    def test_invalid_window_rejected(self):
        env = Environment()
        with pytest.raises(ConfigError):
            ReadPipeline(env, populated_store(), window=0)

    def test_latency_below_duration(self):
        env = Environment()
        pipeline = ReadPipeline(env, populated_store(), window=4)
        report = pipeline.run([i * 4096 for i in range(32)])
        assert 0 < report.mean_latency_s <= report.duration_s

    def test_dedup_sharing_serves_shared_chunks(self):
        store = MetadataStore()
        record = store.store_unique(4096, 2048)
        for slot in range(8):
            store.map_logical(slot * 4096, record, 4096)
        env = Environment()
        pipeline = ReadPipeline(env, store)
        report = pipeline.run([slot * 4096 for slot in range(8)])
        assert report.reads == 8
        assert report.bytes_served == 8 * 4096
