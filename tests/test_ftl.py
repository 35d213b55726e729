"""Tests for the page-mapped FTL and its garbage collector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, StorageError
from repro.storage.ftl import Ftl, FtlSpec


def small_ftl(blocks=8, pages=16, low_water=2):
    return Ftl(FtlSpec(blocks=blocks, pages_per_block=pages,
                       gc_low_water=low_water))


def location(ftl, lpn):
    """(block, page) backing ``lpn``, read off the FTL's mapping."""
    return ftl._mapping[lpn]


class TestBasics:
    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            FtlSpec(blocks=0, pages_per_block=8)
        with pytest.raises(ConfigError):
            FtlSpec(blocks=4, pages_per_block=8, gc_low_water=4)

    def test_write_then_read_location(self):
        ftl = small_ftl()
        ftl.write(7)
        block, page = location(ftl, 7)
        assert ftl._blocks[block].pages[page] == 7

    def test_overwrite_invalidates_old_page(self):
        ftl = small_ftl()
        ftl.write(1)
        first = location(ftl, 1)
        ftl.write(1)
        second = location(ftl, 1)
        assert first != second
        assert ftl.host_pages_written == 2
        ftl.check_invariants()

    def test_sequential_fill_has_unit_wa(self):
        ftl = small_ftl()
        for lpn in range(64):
            ftl.write(lpn)
        assert ftl.write_amplification() == pytest.approx(1.0)
        assert ftl.gc_copies == 0


class TestGarbageCollection:
    def test_overwrites_trigger_gc(self):
        ftl = small_ftl(blocks=8, pages=16)
        # Fill 60% of exported space, then churn it.
        working_set = int(8 * 16 * 0.6)
        for lpn in range(working_set):
            ftl.write(lpn)
        for round_ in range(6):
            for lpn in range(working_set):
                ftl.write(lpn)
        assert ftl.erases > 0
        assert ftl.gc_copies > 0
        assert ftl.write_amplification() > 1.0
        ftl.check_invariants()

    def test_wa_grows_with_utilization(self):
        def churn(fill_fraction):
            ftl = small_ftl(blocks=16, pages=32)
            working_set = int(16 * 32 * fill_fraction)
            for lpn in range(working_set):
                ftl.write(lpn)
            import random
            rng = random.Random(3)
            for _ in range(working_set * 8):
                ftl.write(rng.randrange(working_set))
            ftl.check_invariants()
            return ftl.write_amplification()

        assert churn(0.85) > churn(0.5) + 0.2

    def test_all_data_survives_gc(self):
        import random
        rng = random.Random(9)
        ftl = small_ftl(blocks=8, pages=8)
        live = set()
        for _ in range(600):
            lpn = rng.randrange(40)
            ftl.write(lpn)
            live.add(lpn)
        assert set(ftl._mapping) == live  # every page still resolves
        ftl.check_invariants()

    def test_device_overfull_raises(self):
        ftl = small_ftl(blocks=4, pages=4, low_water=1)
        with pytest.raises(StorageError):
            # 16 uniques exactly fill the raw pages; the 17th has
            # nowhere to go and GC finds nothing reclaimable.
            for lpn in range(17):
                ftl.write(lpn)

    def test_erase_counts_reported(self):
        ftl = small_ftl(blocks=8, pages=8)
        for round_ in range(8):
            for lpn in range(30):
                ftl.write(lpn)
        counts = [block.erases for block in ftl._blocks]
        assert sum(counts) == ftl.erases
        assert ftl.erases > 0

    @given(st.lists(st.integers(0, 30), max_size=400))
    @settings(max_examples=25, deadline=None)
    def test_mapping_never_corrupts_property(self, lpns):
        ftl = small_ftl(blocks=8, pages=8)
        live = set()
        for lpn in lpns:
            ftl.write(lpn)
            live.add(lpn)
        ftl.check_invariants()
        assert ftl.mapped_pages == len(live)
        assert set(ftl._mapping) == live
