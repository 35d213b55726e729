"""Tests for SSD timing, wear and input checks, and metadata."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.errors import BlockRangeError, MetadataError
from repro.sim import Environment
from repro.storage import (
    ChunkRecord,
    MetadataStore,
    SAMSUNG_SSD_830,
    SsdModel,
)
from repro.storage.metadata import PAGE_BLOCKS
from repro.storage.writeback import WriteBack
from repro.tenancy.spec import TENANT_ADDRESS_STRIDE
from repro.types import DEFAULT_CHUNK_SIZE
from tests.reference_paths import ReferenceMetadataStore


class TestSsdSpec:
    def test_830_hits_the_papers_80k_iops(self):
        """The paper quotes ~80 K IOPS for the SSD; the model must agree."""
        assert SAMSUNG_SSD_830.write_iops_4k == pytest.approx(80e3, rel=0.1)

    def test_write_bandwidth_consistent(self):
        bandwidth = SAMSUNG_SSD_830.write_iops_4k * SAMSUNG_SSD_830.page_bytes
        assert bandwidth == pytest.approx(320e6, rel=0.1)

    def test_page_program_time_realistic(self):
        # MLC-era NAND programs a page in ~0.1-1 ms.
        assert 50e-6 < SAMSUNG_SSD_830.page_program_s < 1e-3


class TestSsdModel:
    def _run_writes(self, n, size=4096, concurrency=None):
        env = Environment()
        ssd = SsdModel(env)

        def writer(k):
            for _ in range(k):
                yield env.timeout_at(ssd.write(size, sequential=False))

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
        write = ssd.service_time(4096, SAMSUNG_SSD_830.page_program_s, False)
        read = ssd.service_time(4096, SAMSUNG_SSD_830.page_read_s, False)
        assert read < write

    def test_sequential_writes_slightly_cheaper(self):
        env = Environment()
        ssd = SsdModel(env)
        page_s = SAMSUNG_SSD_830.page_program_s
        seq = ssd.service_time(65536, page_s, sequential=True)
        rand = ssd.service_time(65536, page_s, sequential=False)
        assert seq < rand

    def test_wear_accounting_rounds_to_pages(self):
        env = Environment()
        ssd = SsdModel(env)
        ssd.write(100, sequential=False)
        assert ssd.host_bytes_written == 100
        assert ssd.nand_bytes_written == 4096  # one full page programmed

    def test_write_amplification(self):
        env = Environment()
        ssd = SsdModel(env)
        for _ in range(4):
            ssd.write(2048, sequential=False)
        # Half-page writes each program a whole page.
        assert ssd.nand_bytes_written == 2 * (4 * 2048)

    def test_out_of_range_rejected(self):
        env = Environment()
        ssd = SsdModel(env)
        with pytest.raises(BlockRangeError):
            ssd.write(SAMSUNG_SSD_830.capacity_bytes + 4096, sequential=True)
        assert ssd.requests_completed == 0

    @pytest.mark.parametrize("call", [
        lambda ssd: ssd.write(0, sequential=True),
        lambda ssd: ssd.write(-1, sequential=False),
        lambda ssd: ssd.write(SAMSUNG_SSD_830.capacity_bytes + 1,
                              sequential=True),
        lambda ssd: ssd.read(0),
        lambda ssd: WriteBack(ssd.env, ssd).submit(
            0, sequential=True),
    ], ids=["write(0)", "write(-1)", "write(capacity+1)", "read(0)",
            "WriteBack.submit(0)"])
    def test_a_size_outside_the_device_changes_nothing(self, call):
        """Every way in checks ``0 < nbytes <= capacity`` before the
        ledger or a counter moves, and schedules nothing."""
        env = Environment()
        ssd = SsdModel(env)
        ssd.write(8192, sequential=True)  # a busy channel to disturb

        def state():
            return ([list(server) for server in ssd.ledger._heap],
                    ssd.requests_completed, ssd.host_bytes_written,
                    ssd.host_bytes_read, ssd.nand_bytes_written, env._eid)

        before = state()
        with pytest.raises(BlockRangeError):
            call(ssd)
        assert state() == before


class TestMetadataStore:
    def test_store_and_resolve(self):
        store = MetadataStore()
        physical_id = store.store_unique(size=4096, compressed_size=2048)
        assert type(physical_id) is int and physical_id == 0
        store.map_logical(0, physical_id)
        assert store.resolve(0) == ChunkRecord(
            physical_id=0, size=4096, compressed_size=2048, refcount=1,
            blob=None, checksum=None, delta_base_id=None, delta_refs=0)
        assert store.lookup(physical_id) == 2048

    def test_records_are_read_only_views(self):
        store = MetadataStore()
        store.map_logical(0, store.store_unique(4096, 2048, blob=b"z",
                                                checksum=7))
        view = store.resolve(0)
        with pytest.raises(AttributeError):
            view.refcount = 5
        store.map_logical(4096, 0)
        assert view.refcount == 1 and store.record(0).refcount == 2
        store.replace_blob(0, b"rot")
        assert (view.blob, store.resolve(4096).blob) == (b"z", b"rot")

    def test_swept_ids_are_never_reused(self):
        store = MetadataStore()
        first = store.store_unique(4096, 2048)
        assert store.sweep_unreferenced() == 2048  # born unreferenced
        assert store.lookup(first) is None
        second = store.store_unique(4096, 2048)
        assert second != first
        assert store.lookup(first) is None
        with pytest.raises(MetadataError, match="not in this store"):
            store.record(first)

    def test_dedup_shares_physical(self):
        store = MetadataStore()
        physical_id = store.store_unique(4096, 2048)
        store.map_logical(0, physical_id)
        store.map_logical(4096, physical_id)
        assert store.logical_bytes == 8192
        assert store.physical_bytes == 2048
        assert store.resolve(0).refcount == 2
        assert store.reduction_ratio() == pytest.approx(4.0)
        assert store.dedup_ratio() == pytest.approx(2.0)

    def test_logical_bytes_come_from_the_table(self):
        store = MetadataStore()
        short = store.store_unique(1000, 500)
        store.map_logical(0, short)
        store.map_logical(4096, short)
        assert store.logical_bytes == 2000
        store.map_logical(0, store.store_unique(4096, 4096))
        assert store.logical_bytes == 5096
        store.verify_invariants()

    def test_overwrite_releases_old_mapping(self):
        store = MetadataStore()
        first = store.store_unique(4096, 4096)
        second = store.store_unique(4096, 4096)
        store.map_logical(0, first)
        store.map_logical(0, second)
        assert store.logical_bytes == 4096
        assert store.unique_chunks == 1  # first was freed at refcount 0
        assert store.resolve(0).physical_id == second
        assert store.mapped_offsets() == [0]
        store.verify_invariants()

    def test_unmap_frees_at_zero_refs(self):
        store = MetadataStore()
        store.map_logical(0, store.store_unique(4096, 1000))
        store.unmap_logical(0)
        assert store.unique_chunks == 0
        assert store.physical_bytes == 0
        assert store.logical_bytes == 0
        with pytest.raises(MetadataError):
            store.resolve(0)

    def test_refcount_underflow_detected(self):
        store = MetadataStore()
        physical_id = store.store_unique(4096, 1000)
        with pytest.raises(MetadataError, match="refcount underflow"):
            store._drop_ref(physical_id)

    @pytest.mark.parametrize("size,compressed_size",
                             [(0, 1), (1, 0), (-4096, 1), (2**31, 1)])
    def test_invalid_sizes_rejected(self, size, compressed_size):
        store = MetadataStore()
        with pytest.raises(MetadataError, match="invalid chunk sizes"):
            store.store_unique(size, compressed_size)
        assert store.lookup(0) is None

    def test_unknown_id_rejected(self):
        store = MetadataStore()
        swept = store.store_unique(4096, 1000)
        store.sweep_unreferenced()
        for stranger in (swept, swept + 1, -1):
            with pytest.raises(MetadataError, match="not in this store"):
                store.map_logical(0, stranger)
            assert store.lookup(stranger) is None
        assert store.logical_bytes == 0
        assert store.lookup(None) is None

    def test_sweep_collects_tracked_zombies_and_cascades(self):
        """The sweep works from the ids the ref drops recorded: a revived
        zombie is spared, a swept delta's base is the *next* sweep's."""
        store = MetadataStore()
        ids = []
        for i, compressed in enumerate((100, 200, 300, 400)):
            ids.append(store.store_unique(4096, compressed))
            store.map_logical(i * 4096, ids[i])
        store.attach_delta(ids[3], ids[2])
        with pytest.raises(MetadataError, match="already a delta"):
            store.attach_delta(ids[3], ids[1])
        for offset in (0, 4096, 8192, 12288):
            store.unmap_logical(offset)
        assert store.zombie_chunks == 3  # ids[2] is held by its delta
        assert store.record(ids[2]).delta_refs == 1
        store.map_logical(0, ids[0])  # a hit on a zombie revives
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
        ids = {}
        for offset_slot, content in ops:
            if content not in ids:
                ids[content] = store.store_unique(4096, 2048 + content)
            store.map_logical(offset_slot * 4096, ids[content])
            store.verify_invariants()
        assert store.logical_bytes == len(store.mapped_offsets()) * 4096

    @pytest.mark.parametrize("offset", [1024, 4095, 4096 * 4096 + 512, -1])
    def test_unaligned_offset_is_rejected_not_aliased(self, offset):
        """The block is the only chunk size: an offset inside a block
        raises on every map accessor and leaves both ledgers alone."""
        store = MetadataStore()
        physical_id = store.store_unique(4096, 1000)
        store.map_logical(offset - offset % 4096, physical_id)
        ledgers = (store.logical_bytes, store.physical_bytes)
        for call in (lambda: store.map_logical(offset, physical_id),
                     lambda: store.resolve(offset),
                     lambda: store.resolve_sizes(offset),
                     lambda: store.unmap_logical(offset)):
            with pytest.raises(MetadataError, match="multiple of the"):
                call()
            assert (store.logical_bytes, store.physical_bytes) == ledgers
        assert store.mapped_offsets() == [offset - offset % 4096]
        store.verify_invariants()

    def test_map_spans_pages_and_tenant_strides(self):
        """Blocks on each side of a page boundary and 16 TiB away are
        distinct slots, listed in ascending offset order."""
        store = MetadataStore()
        offsets = [TENANT_ADDRESS_STRIDE, PAGE_BLOCKS * 4096,
                   (PAGE_BLOCKS - 1) * 4096, 0]
        for size, offset in enumerate(offsets, start=1):
            store.map_logical(offset, store.store_unique(size, size))
        assert store.mapped_offsets() == sorted(offsets)
        assert [store.resolve_sizes(offset)[0] for offset in offsets] \
            == [1, 2, 3, 4]
        store.unmap_logical(PAGE_BLOCKS * 4096)
        assert store.mapped_offsets() == [0, (PAGE_BLOCKS - 1) * 4096,
                                          TENANT_ADDRESS_STRIDE]
        assert store.logical_bytes == 1 + 3 + 4
        store.verify_invariants()


#: Logical offsets the state machine maps: few, so overwrites happen,
#: on both sides of a page boundary of the block map (blocks 4 095 and
#: 4 096) and one 16 TiB away, where a second tenant's range starts.
OFFSETS = [block * DEFAULT_CHUNK_SIZE
           for block in (0, 1, 2, 3, PAGE_BLOCKS - 1, PAGE_BLOCKS)] \
    + [TENANT_ADDRESS_STRIDE]


class MetadataAgainstReference(RuleBasedStateMachine):
    """The columnar store and the record-per-chunk oracle, driven with
    the same operations, agree on every accessor and every view."""

    def __init__(self):
        super().__init__()
        self.store = MetadataStore()
        self.reference = ReferenceMetadataStore()

    def _delta_pairs(self) -> list[tuple[int, int]]:
        """(delta, base) pairs the volume could attach: two full chunks,
        the delta newer and not yet anyone's base."""
        full = [record for _, record in sorted(self.reference._by_id.items())
                if record.delta_base_id is None]
        return [(delta.physical_id, base.physical_id)
                for delta in full if delta.delta_refs == 0
                for base in full if base.physical_id < delta.physical_id]

    @rule(size=st.integers(1, 8192), compressed_size=st.integers(1, 8192),
          payload=st.booleans())
    def store_unique(self, size, compressed_size, payload):
        blob = bytes([compressed_size % 251]) * 3 if payload else None
        checksum = size * 31 if payload else None
        physical_id = self.store.store_unique(size, compressed_size,
                                              blob, checksum)
        record = self.reference.store_unique(size, compressed_size,
                                             blob, checksum)
        assert physical_id == record.physical_id

    @precondition(lambda self: self.reference._by_id)
    @rule(data=st.data(), offset=st.sampled_from(OFFSETS))
    def map_logical(self, data, offset):
        """A first reference, an overwrite, or a zombie's revival."""
        physical_id = data.draw(st.sampled_from(
            sorted(self.reference._by_id)))
        record = self.reference.lookup(physical_id)
        self.reference.map_logical(offset, record, record.size)
        self.store.map_logical(offset, physical_id)

    @rule(offset=st.sampled_from(OFFSETS))
    def unmap_logical(self, offset):
        outcomes = []
        for store in (self.store, self.reference):
            try:
                store.unmap_logical(offset)
                outcomes.append(None)
            except MetadataError:
                outcomes.append(MetadataError)
        assert outcomes[0] == outcomes[1]

    @precondition(lambda self: self._delta_pairs())
    @rule(data=st.data())
    def attach_delta(self, data):
        """As the volume does: a full chunk becomes a newer chunk's
        delta base."""
        physical_id, base_id = data.draw(st.sampled_from(
            self._delta_pairs()))
        self.reference.lookup(physical_id).delta_base_id = base_id
        self.reference.add_delta_ref(base_id)
        self.store.attach_delta(physical_id, base_id)

    @rule()
    def sweep(self):
        assert self.store.sweep_unreferenced() == \
            self.reference.sweep_unreferenced()

    @invariant()
    def agrees_with_the_reference(self):
        store, reference = self.store, self.reference
        for name in ("unique_chunks", "zombie_chunks", "logical_bytes",
                     "physical_bytes"):
            assert getattr(store, name) == getattr(reference, name), name
        assert store.reduction_ratio() == reference.reduction_ratio()
        assert store.dedup_ratio() == reference.dedup_ratio()
        assert store.mapped_offsets() == sorted(reference._logical)
        for physical_id in range(-1, reference._next_physical + 1):
            record = reference.lookup(physical_id)
            assert store.lookup(physical_id) == (
                None if record is None else record.compressed_size)
            if record is not None:
                assert tuple(store.record(physical_id)) == \
                    dataclasses.astuple(record)
        for offset in OFFSETS:
            try:
                record = reference.resolve(offset)
            except MetadataError:
                with pytest.raises(MetadataError):
                    store.resolve(offset)
            else:
                assert tuple(store.resolve(offset)) == \
                    dataclasses.astuple(record)
                assert store.resolve_sizes(offset) == (
                    record.size, record.compressed_size)
        store.verify_invariants()
        reference.verify_invariants()


TestMetadataAgainstReference = MetadataAgainstReference.TestCase
TestMetadataAgainstReference.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
