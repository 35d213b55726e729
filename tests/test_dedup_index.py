"""Tests for the B-tree, bin table, bin buffer, GPU index and policies."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dedup import (
    BinBuffer,
    BinTable,
    BTree,
    FifoReplacement,
    GpuBinIndex,
    LruReplacement,
    RandomReplacement,
    ReferenceIndex,
)
from repro.errors import IndexError_
from tests.reference_paths import reference_bin_lookup


def fp(n: int) -> bytes:
    """Deterministic 20-byte fingerprint for integer n."""
    return hashlib.sha1(n.to_bytes(8, "big")).digest()


fingerprints = st.integers(0, 10_000).map(fp)


class TestBTree:
    def test_empty_search(self):
        assert BTree().search(b"missing") is None

    def test_insert_and_search(self):
        tree = BTree(min_degree=2)
        for i in range(100):
            assert tree.insert(fp(i), i) is True
        for i in range(100):
            assert tree.search(fp(i)) == i
        assert tree.search(fp(1000)) is None
        assert len(tree) == 100

    def test_update_existing_key(self):
        tree = BTree(min_degree=2)
        tree.insert(b"key", 1)
        assert tree.insert(b"key", 2) is False
        assert tree.search(b"key") == 2
        assert len(tree) == 1

    def test_height_grows_logarithmically(self):
        tree = BTree(min_degree=2)
        for i in range(1000):
            tree.insert(fp(i), i)
        # t=2 (2-3-4 tree): height <= ~log2(1000) + 1.
        assert 4 <= tree.height <= 11

    def test_items_sorted(self):
        tree = BTree(min_degree=3)
        keys = [fp(i) for i in range(200)]
        for key in keys:
            tree.insert(key, None)
        listed = [k for k, _ in tree.items()]
        assert listed == sorted(keys)

    def test_invariants_after_many_inserts(self):
        tree = BTree(min_degree=2)
        for i in range(500):
            tree.insert(fp(i * 7), i)
            if i % 100 == 0:
                tree.check_invariants()
        tree.check_invariants()

    def test_bad_degree_rejected(self):
        with pytest.raises(IndexError_):
            BTree(min_degree=1)

    @given(st.lists(st.binary(min_size=1, max_size=12), max_size=300),
           st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_property(self, keys, degree):
        tree = BTree(min_degree=degree)
        reference = {}
        for i, key in enumerate(keys):
            tree.insert(key, i)
            reference[key] = i
        tree.check_invariants()
        assert len(tree) == len(reference)
        for key, value in reference.items():
            assert tree.search(key) == value
        assert [k for k, _ in tree.items()] == sorted(reference)


class TestBinTable:
    def test_insert_lookup(self):
        table = BinTable()
        assert table.insert(fp(1), "a") is True
        assert table.insert(fp(1), "b") is False
        assert table.lookup(fp(1)) == "b"
        assert table.lookup(fp(2)) is None
        assert len(table) == 1

    def test_bin_selection_uses_prefix(self):
        table = BinTable(prefix_bytes=2)
        f = fp(42)
        assert table.bin_of(f) == int.from_bytes(f[:2], "big")
        assert table.suffix_of(f) == f[2:]

    def test_bins_partition_the_keyspace(self):
        table = BinTable(prefix_bytes=1)
        for i in range(2000):
            table.insert(fp(i), i)
        assert table.occupied_bins() > 200  # SHA-1 spreads prefixes
        assert sum(table.bin_sizes()) == 2000

    def test_balance_near_one_for_hashed_keys(self):
        table = BinTable(prefix_bytes=1)
        for i in range(20000):
            table.insert(fp(i), i)
        assert table.balance() > 0.5

    def test_memory_math_matches_paper(self):
        """4 TB / 8 KB chunks, 32 B entries => 16 GB; 2 B prefix => 1 GB."""
        table = BinTable(prefix_bytes=2)
        n_entries = 4 * 1024**4 // (8 * 1024)
        per_full_entry = 32
        full = n_entries * per_full_entry
        assert full == 16 * 1024**3
        saved_per_entry = table.prefix_bytes
        assert n_entries * saved_per_entry == 1024**3

    def test_memory_accounting(self):
        table = BinTable(prefix_bytes=2)
        for i in range(100):
            table.insert(fp(i), i)
        assert table.memory_bytes(metadata_bytes=12) == 100 * (18 + 12)
        assert table.memory_saved_bytes() == 200

    def test_truncation_preserves_exactness(self):
        """Dropping the prefix loses nothing: the bin number encodes it."""
        table = BinTable(prefix_bytes=2)
        present = [hashlib.sha1(str(i).encode()).digest()
                   for i in range(5000)]
        for fingerprint in present:
            table.insert(fingerprint, True)
        assert all(table.lookup(fingerprint) for fingerprint in present)
        absent = [hashlib.sha1(f"absent{i}".encode()).digest()
                  for i in range(5000)]
        assert not any(table.lookup(fingerprint) for fingerprint in absent)
        assert table.memory_saved_bytes() == 2 * 5000

    def test_hit_rate_statistics(self):
        table = BinTable()
        table.insert(fp(1), 1)
        table.lookup(fp(1))
        table.lookup(fp(2))
        assert table.hit_rate() == 0.5

    def test_bin_depth_grows(self):
        table = BinTable(prefix_bytes=1, min_degree=2)
        f = fp(3)
        assert table.bin_depth(f) == 1
        # Fill the specific bin of fp(3) so its tree gains height.
        target_bin = table.bin_of(f)
        added = 0
        i = 0
        while added < 200:
            candidate = fp(i)
            if table.bin_of(candidate) == target_bin:
                table.insert(candidate, i)
                added += 1
            i += 1
        assert table.bin_depth(f) >= 3

    def test_invalid_prefix_rejected(self):
        with pytest.raises(IndexError_):
            BinTable(prefix_bytes=0)

    def test_bad_fingerprint_rejected(self):
        with pytest.raises(IndexError_):
            BinTable().lookup(b"short")

    @given(st.lists(st.integers(0, 500), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_index_property(self, numbers):
        table = BinTable(prefix_bytes=2, min_degree=2)
        reference = ReferenceIndex()
        for n in numbers:
            assert table.insert(fp(n), n) == reference.insert(fp(n), n)
        assert len(table) == len(reference)
        for n in set(numbers) | {9999}:
            assert table.lookup(fp(n)) == reference.lookup(fp(n))


class TestBinBuffer:
    def test_stage_and_probe(self):
        buffer = BinBuffer(per_bin_capacity=8)
        assert buffer.lookup(fp(1)) is None
        assert buffer.add(fp(1), "v") is None
        assert buffer.lookup(fp(1)) == "v"
        assert len(buffer) == 1

    def test_flush_on_full_bin(self):
        buffer = BinBuffer(prefix_bytes=1, per_bin_capacity=4)
        target_bin = None
        flushed = None
        added = []
        i = 0
        while flushed is None:
            f = fp(i)
            bin_id = int.from_bytes(f[:1], "big")
            if target_bin is None:
                target_bin = bin_id
            if bin_id == target_bin:
                added.append(f)
                flushed = buffer.add(f, i)
            i += 1
        assert flushed.bin_id == target_bin
        assert flushed.count == 4
        assert [suffix for suffix, _ in flushed.staged] \
            == [f[1:] for f in added]
        # Flushed entries are gone from the buffer.
        assert buffer.lookup(added[0]) is None

    def test_double_stage_rejected(self):
        buffer = BinBuffer(per_bin_capacity=8)
        buffer.add(fp(1), 1)
        with pytest.raises(IndexError_):
            buffer.add(fp(1), 1)

    def test_flush_all_drains(self):
        buffer = BinBuffer(per_bin_capacity=100)
        for i in range(50):
            buffer.add(fp(i), i)
        events = buffer.flush_all()
        assert sum(e.count for e in events) == 50
        assert len(buffer) == 0
        assert buffer.staged_bins() == 0

    def test_hit_rate(self):
        buffer = BinBuffer(per_bin_capacity=100)
        buffer.add(fp(1), 1)
        buffer.lookup(fp(1))
        buffer.lookup(fp(1))
        buffer.lookup(fp(2))
        assert buffer.hit_rate() == pytest.approx(2 / 3)


class TestGpuBinIndex:
    def test_insert_then_hit(self):
        index = GpuBinIndex()
        index.insert(fp(1))
        assert index.lookup_host([fp(1), fp(2)]) == [True, False]
        assert len(index) == 1

    def test_agrees_with_reference(self):
        index = GpuBinIndex(bin_capacity=4096)
        reference = ReferenceIndex()
        for i in range(500):
            index.insert(fp(i))
            reference.insert(fp(i), True)
        probes = [fp(i) for i in range(0, 1000, 7)]
        hits = index.lookup_host(probes)
        assert hits == [reference.lookup(p) is not None for p in probes]

    def test_eviction_when_bin_full(self):
        index = GpuBinIndex(prefix_bytes=1, bin_capacity=2,
                            policy=FifoReplacement())
        # Find three fingerprints sharing one bin.
        shared = []
        i = 0
        target = None
        while len(shared) < 3:
            f = fp(i)
            bin_id = int.from_bytes(f[:1], "big")
            if target is None:
                target = bin_id
            if bin_id == target:
                shared.append(f)
            i += 1
        for f in shared:
            index.insert(f)
        assert index.evictions == 1
        hits = index.lookup_host(shared)
        # FIFO evicted the first; the last two must remain.
        assert hits == [False, True, True]

    def test_update_from_flush(self):
        buffer = BinBuffer(prefix_bytes=2, per_bin_capacity=1)
        index = GpuBinIndex(prefix_bytes=2)
        event = buffer.add(fp(5), "value")
        assert event is not None
        index.install_views(event.bin_id,
                            [suffix for suffix, _ in event.staged])
        assert index.lookup_host([fp(5)]) == [True]

    def test_device_memory_accounting(self):
        from repro.gpu import DeviceMemory
        memory = DeviceMemory(10**6)
        index = GpuBinIndex(bin_capacity=16, memory=memory)
        index.insert(fp(1))
        assert memory.used_bytes == 16 * 16  # one bin allocated
        assert index.device_bytes() == 16 * 16

    def test_kernel_agrees_with_reference_lookup(self):
        index = GpuBinIndex()
        for i in range(64):
            index.insert(fp(i))
        probes = [fp(i) for i in range(0, 128, 5)]
        kernel = index.make_kernel(probes)
        assert kernel.execute().tolist() == reference_bin_lookup(
            kernel.batch, index.table_view())

    def test_hit_statistics(self):
        index = GpuBinIndex()
        index.insert(fp(1))
        index.lookup_host([fp(1), fp(2), fp(1)])
        assert index.lookups == 3
        assert index.hits == 2
        assert index.hit_rate() == pytest.approx(2 / 3)

    @given(st.sets(st.integers(0, 200), max_size=60),
           st.lists(st.integers(0, 300), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_no_false_results_property(self, stored, probed):
        index = GpuBinIndex(bin_capacity=4096)
        for n in stored:
            index.insert(fp(n))
        hits = index.lookup_host([fp(n) for n in probed])
        assert hits == [n in stored for n in probed]


class TestReplacementPolicies:
    def test_random_in_range(self):
        policy = RandomReplacement(seed=1)
        for _ in range(100):
            assert 0 <= policy.choose_victim(0, 8) < 8

    def test_random_deterministic_with_seed(self):
        a = [RandomReplacement(seed=3).choose_victim(0, 100)
             for _ in range(1)]
        b = [RandomReplacement(seed=3).choose_victim(0, 100)
             for _ in range(1)]
        assert a == b

    def test_fifo_cycles(self):
        policy = FifoReplacement()
        victims = [policy.choose_victim(7, 3) for _ in range(6)]
        assert victims == [0, 1, 2, 0, 1, 2]

    def test_fifo_per_bin_cursors(self):
        policy = FifoReplacement()
        assert policy.choose_victim(1, 4) == 0
        assert policy.choose_victim(2, 4) == 0
        assert policy.choose_victim(1, 4) == 1

    def test_lru_prefers_untouched(self):
        policy = LruReplacement()
        for slot in range(4):
            policy.on_insert(0, slot)
        policy.on_hit(0, 0)  # slot 0 is now the most recent
        assert policy.choose_victim(0, 4) == 1

    def test_lru_forget_bin(self):
        policy = LruReplacement()
        policy.on_insert(0, 3)
        policy.forget_bin(0)
        assert policy.choose_victim(0, 4) == 0

    def test_empty_bin_rejected(self):
        for policy in (RandomReplacement(seed=0), FifoReplacement(),
                       LruReplacement()):
            with pytest.raises(IndexError_):
                policy.choose_victim(0, 0)
