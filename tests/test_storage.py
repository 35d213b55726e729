"""Tests for the block request model, SSD timing/wear, and metadata."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BlockRangeError, MetadataError
from repro.sim import Environment
from repro.storage import (
    BlockRequest,
    MetadataStore,
    RequestKind,
    SAMSUNG_SSD_830,
    SsdModel,
)


def fp(n: int) -> bytes:
    return hashlib.sha1(n.to_bytes(8, "big")).digest()


class TestBlockRequest:
    def test_end(self):
        req = BlockRequest(RequestKind.WRITE, 4096, 8192)
        assert req.end == 12288

    def test_negative_offset_rejected(self):
        with pytest.raises(BlockRangeError):
            BlockRequest(RequestKind.READ, -1, 10)

    def test_zero_size_rejected(self):
        with pytest.raises(BlockRangeError):
            BlockRequest(RequestKind.READ, 0, 0)

    def test_capacity_check(self):
        req = BlockRequest(RequestKind.WRITE, 0, 2048)
        req.validate_against(4096)
        with pytest.raises(BlockRangeError):
            req.validate_against(1024)


class TestSsdSpec:
    def test_830_hits_the_papers_80k_iops(self):
        """The paper quotes ~80 K IOPS for the SSD; the model must agree."""
        assert SAMSUNG_SSD_830.write_iops_4k == pytest.approx(80e3, rel=0.1)

    def test_write_bandwidth_consistent(self):
        assert SAMSUNG_SSD_830.write_bps == pytest.approx(320e6, rel=0.1)

    def test_page_program_time_realistic(self):
        # MLC-era NAND programs a page in ~0.1-1 ms.
        assert 50e-6 < SAMSUNG_SSD_830.page_program_s < 1e-3


class TestSsdModel:
    def _run_writes(self, n, size=4096, concurrency=None):
        env = Environment()
        ssd = SsdModel(env)

        def writer(k):
            for _ in range(k):
                yield from ssd.submit(
                    BlockRequest(RequestKind.WRITE, 0, size))

        streams = concurrency or ssd.spec.channels
        per_stream = n // streams
        for _ in range(streams):
            env.process(writer(per_stream))
        env.run()
        return env, ssd, streams * per_stream

    def test_full_concurrency_reaches_rated_iops(self):
        env, ssd, completed = self._run_writes(800)
        iops = completed / env.now
        assert iops == pytest.approx(SAMSUNG_SSD_830.write_iops_4k, rel=0.1)

    def test_qd1_sees_nand_latency(self):
        env, ssd, completed = self._run_writes(80, concurrency=1)
        iops = completed / env.now
        # One stream cannot keep 8 channels busy.
        assert iops < SAMSUNG_SSD_830.write_iops_4k / 4

    def test_reads_faster_than_writes(self):
        env = Environment()
        ssd = SsdModel(env)
        write = ssd.service_time(BlockRequest(RequestKind.WRITE, 0, 4096))
        read = ssd.service_time(BlockRequest(RequestKind.READ, 0, 4096))
        assert read < write

    def test_sequential_writes_slightly_cheaper(self):
        env = Environment()
        ssd = SsdModel(env)
        seq = ssd.service_time(
            BlockRequest(RequestKind.WRITE, 0, 65536, sequential=True))
        rand = ssd.service_time(
            BlockRequest(RequestKind.WRITE, 0, 65536, sequential=False))
        assert seq < rand

    def test_wear_accounting_rounds_to_pages(self):
        env = Environment()
        ssd = SsdModel(env)

        def proc():
            yield from ssd.submit(BlockRequest(RequestKind.WRITE, 0, 100))

        env.process(proc())
        env.run()
        assert ssd.host_bytes_written == 100
        assert ssd.nand_bytes_written == 4096  # one full page programmed

    def test_write_amplification(self):
        env = Environment()
        ssd = SsdModel(env)

        def proc():
            for _ in range(4):
                yield from ssd.submit(
                    BlockRequest(RequestKind.WRITE, 0, 2048))

        env.process(proc())
        env.run()
        assert ssd.write_amplification(4 * 2048) == pytest.approx(2.0)

    def test_out_of_range_rejected(self):
        env = Environment()
        ssd = SsdModel(env)

        def proc():
            yield from ssd.submit(BlockRequest(
                RequestKind.WRITE, SAMSUNG_SSD_830.capacity_bytes, 4096))

        env.process(proc())
        with pytest.raises(BlockRangeError):
            env.run()

    def test_trim_is_cheap_and_counted(self):
        env = Environment()
        ssd = SsdModel(env)

        def proc():
            yield from ssd.submit(BlockRequest(RequestKind.TRIM, 0, 4096))

        env.process(proc())
        env.run()
        assert ssd.trims == 1
        assert ssd.nand_bytes_written == 0
        assert env.now < 1e-4


class TestMetadataStore:
    def test_store_and_resolve(self):
        store = MetadataStore()
        store.store_unique(fp(1), size=4096, compressed_size=2048)
        store.map_logical(0, fp(1), size=4096)
        record = store.resolve(0)
        assert record.fingerprint == fp(1)
        assert record.refcount == 1

    def test_duplicate_store_rejected(self):
        store = MetadataStore()
        store.store_unique(fp(1), 4096, 2048)
        with pytest.raises(MetadataError):
            store.store_unique(fp(1), 4096, 2048)

    def test_dedup_shares_physical(self):
        store = MetadataStore()
        store.store_unique(fp(1), 4096, 2048)
        store.map_logical(0, fp(1), 4096)
        store.map_logical(4096, fp(1), 4096)
        assert store.logical_bytes == 8192
        assert store.physical_bytes == 2048
        assert store.resolve(0).refcount == 2
        assert store.reduction_ratio() == pytest.approx(4.0)
        assert store.dedup_ratio() == pytest.approx(2.0)

    def test_overwrite_releases_old_mapping(self):
        store = MetadataStore()
        store.store_unique(fp(1), 4096, 4096)
        store.store_unique(fp(2), 4096, 4096)
        store.map_logical(0, fp(1), 4096)
        store.map_logical(0, fp(2), 4096)
        assert store.logical_bytes == 4096
        assert store.unique_chunks == 1  # fp(1) was freed at refcount 0
        assert store.resolve(0).fingerprint == fp(2)
        store.verify_invariants()

    def test_unmap_frees_at_zero_refs(self):
        store = MetadataStore()
        store.store_unique(fp(1), 4096, 1000)
        store.map_logical(0, fp(1), 4096)
        store.unmap_logical(0)
        assert store.unique_chunks == 0
        assert store.physical_bytes == 0
        assert store.logical_bytes == 0
        with pytest.raises(MetadataError):
            store.resolve(0)

    def test_refcount_underflow_detected(self):
        store = MetadataStore()
        store.store_unique(fp(1), 4096, 1000)
        with pytest.raises(MetadataError):
            store.drop_reference(fp(1))

    def test_unknown_reference_rejected(self):
        store = MetadataStore()
        with pytest.raises(MetadataError):
            store.add_reference(fp(99))

    def test_index_memory_sizing(self):
        store = MetadataStore()
        for i in range(10):
            store.store_unique(fp(i), 4096, 4096)
        assert store.index_memory_bytes(entry_bytes=32) == 320

    def test_sweep_collects_tracked_zombies_and_cascades(self):
        """The sweep works from the ids the ref drops recorded: a revived
        zombie is spared, a swept delta's base is the *next* sweep's."""
        store = MetadataStore()
        for i, compressed in enumerate((100, 200, 300, 400)):
            store.store_unique(fp(i), 4096, compressed)
            store.map_logical(i * 4096, fp(i), 4096)
        delta = store.lookup(fp(3))
        delta.delta_base_id = store.lookup(fp(2)).physical_id
        store.add_delta_ref(delta.delta_base_id)
        for offset in (0, 4096, 8192, 12288):
            store.unmap_logical(offset)
        assert store.zombie_chunks == 3  # fp(2) is held by its delta
        store.map_logical(0, fp(0), 4096)  # stale index hit revives
        store.verify_invariants()
        assert store.sweep_unreferenced() == 200 + 400
        store.verify_invariants()
        assert store.zombie_chunks == 1 and store.unique_chunks == 1
        assert store.sweep_unreferenced() == 300
        assert store.sweep_unreferenced() == 0
        store.verify_invariants()
        store._zombies.add(store.resolve(0).physical_id)
        with pytest.raises(MetadataError, match="zombie set drift"):
            store.verify_invariants()

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 10)),
                    max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_ledger_invariants_property(self, ops):
        """Random map/overwrite sequences keep the ledger consistent."""
        store = MetadataStore()
        for offset_slot, content in ops:
            fingerprint = fp(content)
            if store.lookup(fingerprint) is None:
                store.store_unique(fingerprint, 4096, 2048 + content)
            store.map_logical(offset_slot * 4096, fingerprint, 4096)
            store.verify_invariants()
        assert store.logical_bytes == store.mapped_offsets * 4096
