"""Fast-path equivalence properties for the dedup index plane.

The PR that vectorized the index plane (broadcast GPU lookups, batched
flush installs, bisect tree probes) promised
*byte-identical* behaviour.  These tests hold it to that: random
interleavings of inserts, flush installs, lookups and capacity
overflows must agree across the vectorized kernel, the SIMT kernel and
a plain-dict oracle that replays the same seeded eviction draws; the
B-tree must keep its invariants through split bursts; and a kernel's
cost must not depend on whether it has executed yet.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dedup.bin_buffer import BinBuffer
from repro.dedup.bins import BinTable
from repro.dedup.btree import BTree
from repro.dedup.gpu_index import GpuBinIndex
from repro.dedup.index_base import decompose
from repro.dedup.replacement import RandomReplacement
from repro.errors import IndexError_
from repro.gpu.kernels.indexing_tiled import TiledBinLookupKernel

PREFIX_BYTES = 1
BIN_CAPACITY = 3
#: Tiny universe with only four distinct prefixes: collisions and
#: bin-capacity overflow are the common case, not the corner case.
N_PREFIXES = 4
UNIVERSE = 48


def fp(i: int) -> bytes:
    body = hashlib.sha1(i.to_bytes(8, "big")).digest()
    return bytes([i % N_PREFIXES]) + body[1:]


def lanes(suffix: bytes) -> tuple[int, int]:
    """The two u64 words a GPU bin compares, from the suffix bytes."""
    return (int.from_bytes(suffix[:8], "big"),
            int.from_bytes(suffix[8:16], "big"))


class OracleBins:
    """Ground truth: plain lists plus the same seeded eviction draws."""

    def __init__(self, seed: int):
        self.policy = RandomReplacement(seed=seed)
        self.bins: dict[int, list[tuple[int, int]]] = {}

    def insert(self, fingerprint: bytes) -> None:
        view = decompose(fingerprint, PREFIX_BYTES)
        slots = self.bins.setdefault(view.bin_id, [])
        if len(slots) < BIN_CAPACITY:
            slots.append(lanes(view.suffix))
        else:
            victim = self.policy.choose_victim(view.bin_id, BIN_CAPACITY)
            slots[victim] = lanes(view.suffix)

    def lookup_slot(self, fingerprint: bytes) -> int:
        view = decompose(fingerprint, PREFIX_BYTES)
        for slot, words in enumerate(self.bins.get(view.bin_id, [])):
            if words == lanes(view.suffix):
                return slot
        return -1


ops_strategy = st.lists(
    st.one_of(
        # Single insert.
        st.tuples(st.just("insert"), st.integers(0, UNIVERSE - 1)),
        # Flush-style batched install of several fingerprints.
        st.tuples(st.just("flush"),
                  st.lists(st.integers(0, UNIVERSE - 1),
                           min_size=1, max_size=12)),
        # Batched lookup.
        st.tuples(st.just("lookup"),
                  st.lists(st.integers(0, UNIVERSE - 1),
                           min_size=1, max_size=12)),
    ),
    min_size=1, max_size=24)


class TestIndexInterleavingProperty:
    @given(ops=ops_strategy, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_vectorized_simt_and_oracle_agree(self, ops, seed):
        index = GpuBinIndex(prefix_bytes=PREFIX_BYTES,
                            bin_capacity=BIN_CAPACITY,
                            policy=RandomReplacement(seed=seed))
        oracle = OracleBins(seed=seed)
        for op, arg in ops:
            if op == "insert":
                index.insert(fp(arg))
                oracle.insert(fp(arg))
            elif op == "flush":
                entries = [(fp(i), None) for i in arg]
                index.update_from_flush(entries)
                for fingerprint, _value in entries:
                    oracle.insert(fingerprint)
            else:
                probes = [fp(i) for i in arg]
                plain = index.make_kernel(probes).execute()
                simt = index.make_kernel(probes, use_simt=True).execute()
                tiled = index.make_kernel(probes, tiled=True).execute()
                expected = [oracle.lookup_slot(p) for p in probes]
                assert plain.tolist() == expected
                assert simt.tolist() == expected
                assert tiled.tolist() == expected

    @given(seed=st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_batched_flush_matches_per_entry_inserts(self, seed):
        """One flush install == the same entries inserted one by one."""
        batched = GpuBinIndex(prefix_bytes=PREFIX_BYTES,
                              bin_capacity=BIN_CAPACITY,
                              policy=RandomReplacement(seed=seed))
        serial = GpuBinIndex(prefix_bytes=PREFIX_BYTES,
                             bin_capacity=BIN_CAPACITY,
                             policy=RandomReplacement(seed=seed))
        entries = [(fp(i), None) for i in range(UNIVERSE)]
        batched.update_from_flush(entries)
        for fingerprint, _value in entries:
            serial.insert(fingerprint)
        assert batched.evictions == serial.evictions
        assert len(batched) == len(serial)
        probes = [fp(i) for i in range(UNIVERSE)]
        assert batched.make_kernel(probes).execute().tolist() \
            == serial.make_kernel(probes).execute().tolist()


class TestBTreeProperties:
    @given(keys=st.lists(st.binary(min_size=4, max_size=12),
                         min_size=1, max_size=200),
           min_degree=st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_invariants_survive_split_bursts(self, keys, min_degree):
        tree = BTree(min_degree=min_degree)
        reference: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            tree.insert(key, i)
            reference[key] = i
            tree.check_invariants()
        assert len(tree) == len(reference)
        for key, value in reference.items():
            assert tree.search(key) == value
        assert [k for k, _ in tree.items()] == sorted(reference)

    @given(pairs=st.lists(
        st.tuples(st.binary(min_size=4, max_size=12), st.integers()),
        min_size=0, max_size=80),
        min_degree=st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_insert_run_matches_serial_inserts(self, pairs, min_degree):
        """Covers both the fresh-leaf fast path (few unique keys) and
        the per-entry fallback (runs larger than one node)."""
        bulk = BTree(min_degree=min_degree)
        serial = BTree(min_degree=min_degree)
        installed = bulk.insert_run(pairs)
        new = sum(serial.insert(k, v) for k, v in pairs)
        bulk.check_invariants()
        serial.check_invariants()
        assert installed == new
        assert len(bulk) == len(serial)
        assert bulk.height == serial.height
        assert list(bulk.items()) == list(serial.items())


class TestCostMemoization:
    def _populated_index(self) -> GpuBinIndex:
        index = GpuBinIndex(prefix_bytes=PREFIX_BYTES,
                            bin_capacity=64,
                            policy=RandomReplacement(seed=5))
        for i in range(UNIVERSE):
            index.insert(fp(i))
        return index

    def test_cost_before_execute_equals_cost_after(self):
        probes = [fp(i) for i in range(0, UNIVERSE, 2)]
        for tiled in (False, True):
            priced = self._populated_index().make_kernel(probes,
                                                         tiled=tiled)
            executed = self._populated_index().make_kernel(probes,
                                                           tiled=tiled)
            executed.execute()
            # The device prices a launch up front; the answer must not
            # change once the kernel has actually run.
            assert priced.cost() == executed.cost()

    def test_cost_is_memoized(self):
        probes = [fp(i) for i in range(8)]
        for tiled in (False, True):
            kernel = self._populated_index().make_kernel(probes,
                                                         tiled=tiled)
            assert kernel.cost() is kernel.cost()
            kernel.execute()
            assert kernel.cost() is kernel.cost()

    def test_tiled_kernel_cost_stable_across_paths(self):
        index = self._populated_index()
        probes = [fp(i) for i in range(0, UNIVERSE, 3)]
        vec = index.make_kernel(probes, tiled=True)
        simt = TiledBinLookupKernel(index.make_batch(probes),
                                    index.table_view(),
                                    costs=index.costs, use_simt=True)
        vec.execute()
        simt.execute()
        assert vec.cost() == simt.cost()


class TestDecomposition:
    def test_view_matches_manual_decomposition(self):
        fingerprint = fp(7)
        for prefix_bytes in (1, 2, 3, 4):
            for raw in (fingerprint, bytearray(fingerprint)):
                view = decompose(raw, prefix_bytes)
                assert view == (
                    int.from_bytes(fingerprint[:prefix_bytes], "big"),
                    fingerprint[prefix_bytes:])
                assert type(view.suffix) is bytes

    def test_every_entry_point_rejects_alike(self):
        entry_points = (
            lambda f: decompose(f, 2),
            BinBuffer().lookup,
            BinTable().lookup,
            GpuBinIndex().insert,
        )
        for bad, message in (
                ("not-bytes", "fingerprint must be bytes, got str"),
                (b"short", "fingerprint must be 20 bytes, got 5"),
                (bytearray(21), "fingerprint must be 20 bytes, got 21")):
            for entry in entry_points:
                with pytest.raises(IndexError_) as excinfo:
                    entry(bad)
                assert str(excinfo.value) == message
