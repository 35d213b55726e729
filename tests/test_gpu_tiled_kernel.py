"""Tests for the workgroup-tiled bin-lookup kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.gpu import GpuDevice
from repro.gpu.kernels.indexing import BinLookupKernel
from repro.gpu.kernels.indexing_tiled import TiledBinLookupKernel
from repro.sim import Environment
from tests.reference_paths import lookup_batch, reference_bin_lookup


def make_table(entries):
    table = {}
    for bin_id, lo, hi in entries:
        lo_arr, hi_arr, count = table.get(
            bin_id, (np.zeros(512, dtype=np.uint64),
                     np.zeros(512, dtype=np.uint64), 0))
        lo_arr[count] = lo
        hi_arr[count] = hi
        table[bin_id] = (lo_arr, hi_arr, count + 1)
    return table


def full_table(n_bins=4, per_bin=40):
    return make_table([(b, 1000 * b + i, 2000 * b + i)
                       for b in range(n_bins) for i in range(per_bin)])


class TestTiledLookup:
    def test_matches_simple_kernel(self):
        table = full_table()
        queries = ([(b, 1000 * b + i, 2000 * b + i)
                    for b in range(4) for i in range(0, 40, 7)]
                   + [(0, 1, 1), (2, 5, 5), (9, 9, 9)])
        batch = lookup_batch(queries)
        expected = reference_bin_lookup(batch, table)
        assert BinLookupKernel(batch, table).execute().tolist() == expected
        assert TiledBinLookupKernel(batch, table).execute().tolist() \
            == expected

    def test_tile_size_prices_the_launch_not_the_answer(self):
        """Bins of 70 entries: three 32-entry tiles pay more barriers
        than one 256-entry tile, for the same slots."""
        table = full_table(n_bins=3, per_bin=70)
        queries = [(b, 1000 * b + i, 2000 * b + i)
                   for b in range(3) for i in range(0, 70, 5)]
        queries += [(1, 42424242, 0)]
        batch = lookup_batch(queries)
        small = TiledBinLookupKernel(batch, table, tile_entries=32)
        large = TiledBinLookupKernel(batch, table)
        assert small.execute().tolist() == large.execute().tolist() \
            == reference_bin_lookup(batch, table)
        assert small.cost().lane_cycles_total \
            > large.cost().lane_cycles_total

    def test_unknown_bin_misses(self):
        batch = lookup_batch([(99, 1, 2)])
        assert list(TiledBinLookupKernel(batch, {}).execute()) == [-1]

    def test_invalid_tile_size_rejected(self):
        batch = lookup_batch([(0, 1, 2)])
        with pytest.raises(KernelError):
            TiledBinLookupKernel(batch, {}, tile_entries=0)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 60)),
                    min_size=1, max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, raw_queries):
        table = full_table()
        queries = [(b, 1000 * b + i, 2000 * b + i)
                   for b, i in raw_queries]
        batch = lookup_batch(queries)
        expected = reference_bin_lookup(batch, table)
        assert BinLookupKernel(batch, table).execute().tolist() == expected
        assert TiledBinLookupKernel(batch, table).execute().tolist() \
            == expected


class TestTiledCost:
    def test_global_reads_amortized_across_shared_bin(self):
        """Many queries on one bin: tiled stages the bin once, the simple
        kernel streams it per query."""
        table = full_table(n_bins=1, per_bin=500)
        queries = [(0, 7, 7)] * 64
        batch = lookup_batch(queries)
        simple = BinLookupKernel(batch, table).cost()
        tiled = TiledBinLookupKernel(batch, table).cost()
        assert tiled.bytes_read < simple.bytes_read / 10

    def test_launch_time_wins_for_shared_bins(self):
        env = Environment()
        gpu = GpuDevice(env)
        table = full_table(n_bins=2, per_bin=500)
        queries = [(qi % 2, 7, 7) for qi in range(256)]
        batch = lookup_batch(queries)
        simple = gpu.launch_time(BinLookupKernel(batch, table))
        tiled = gpu.launch_time(TiledBinLookupKernel(batch, table))
        assert tiled < simple

    def test_cost_available_before_execution(self):
        table = full_table()
        batch = lookup_batch([(0, 1, 1), (1, 2, 2)])
        cost = TiledBinLookupKernel(batch, table).cost()
        assert cost.lane_cycles_total > 0
        assert cost.bytes_read > 0

    def test_pcie_footprint_same_as_simple(self):
        table = full_table()
        batch = lookup_batch([(0, 1, 1)] * 10)
        simple = BinLookupKernel(batch, table)
        tiled = TiledBinLookupKernel(batch, table)
        assert tiled.bytes_in() == simple.bytes_in()
        assert tiled.bytes_out() == simple.bytes_out()
