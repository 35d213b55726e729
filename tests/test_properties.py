"""Cross-cutting property tests: determinism, conservation, equivalence.

These properties span modules: they are what a downstream user silently
relies on (same seed = same answer; chunks are conserved; every
compression path agrees with the reference decoder; the metadata ledger
survives arbitrary operation interleavings).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import LzssCodec, QuickLzCodec
from repro.core import IntegrationMode, PipelineConfig, ReductionPipeline
from repro.errors import MetadataError
from repro.gpu.kernels.lz import SegmentLzKernel
from repro.sim import Environment
from repro.storage import MetadataStore
from repro.workload import VdbenchStream
from tests.reference_codecs import launch_outputs, refine_to_container


def run_pipeline(mode=IntegrationMode.GPU_COMP, n=768, seed=3,
                 **overrides):
    defaults = dict(mode=mode, window=64, gpu_index_batch=16,
                    gpu_comp_batch=16, gpu_batch_wait_s=5e-4,
                    bin_buffer_capacity=8, bin_buffer_total=64)
    defaults.update(overrides)
    config = PipelineConfig(**defaults)
    env = Environment()
    pipeline = ReductionPipeline(env, config)
    stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=seed)
    return pipeline.run(stream.chunks(n), total=n)


class TestDeterminism:
    def test_pipeline_runs_are_bit_identical(self):
        a = run_pipeline(seed=11)
        b = run_pipeline(seed=11)
        assert a.duration_s == b.duration_s
        assert a.counters == b.counters
        assert a.gpu_kernels == b.gpu_kernels

    def test_different_seeds_differ(self):
        a = run_pipeline(seed=11)
        b = run_pipeline(seed=12)
        assert a.counters != b.counters

    @given(st.sampled_from(list(IntegrationMode)))
    @settings(max_examples=8, deadline=None)
    def test_every_mode_is_deterministic_property(self, mode):
        a = run_pipeline(mode=mode, n=256)
        b = run_pipeline(mode=mode, n=256)
        assert a.duration_s == b.duration_s


class TestConservation:
    @given(st.integers(1, 4).map(lambda k: 256 * k),
           st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_every_chunk_takes_one_terminal_edge_property(self, n, seed):
        report = run_pipeline(mode=IntegrationMode.GPU_BOTH, n=n,
                              seed=seed)
        counters = report.counters
        terminal = (counters["gpu_hits"] + counters["buffer_hits"]
                    + counters["tree_hits"]
                    + counters.get("pending_hits", 0)
                    + counters.get("race_duplicates", 0)
                    + counters["uniques"])
        assert terminal == n

    def test_bytes_in_matches_chunks(self):
        report = run_pipeline(n=512)
        assert report.bytes_in == 512 * 4096


class TestCompressionPathEquivalence:
    """Every producer must satisfy the one reference decoder."""

    @given(st.binary(min_size=1, max_size=1200), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_gpu_path_decodes_with_reference_decoder(self, data, segs):
        outputs = launch_outputs(
            SegmentLzKernel([data], segments_per_chunk=segs).execute())[0]
        blob = refine_to_container(data, outputs)
        assert LzssCodec().decode(blob) == data

    @given(st.binary(max_size=1500))
    @settings(max_examples=40, deadline=None)
    def test_all_codecs_roundtrip_the_same_input(self, data):
        for codec in (LzssCodec(), QuickLzCodec()):
            assert codec.decode(codec.encode(data)) == data

    @given(st.binary(min_size=64, max_size=1024))
    @settings(max_examples=25, deadline=None)
    def test_compression_never_corrupts_even_when_it_expands(self, data):
        codec = LzssCodec()
        blob = codec.encode(data)
        assert codec.decode(blob) == data


class TestMetadataFuzz:
    op = st.one_of(
        st.tuples(st.just("map"), st.integers(0, 12), st.integers(0, 6)),
        st.tuples(st.just("unmap"), st.integers(0, 12), st.just(0)),
        st.tuples(st.just("restart"), st.just(0), st.just(0)),
        st.tuples(st.just("sweep"), st.just(0), st.just(0)),
    )

    @given(st.lists(op, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_ledger_survives_interleavings_property(self, ops):
        store = MetadataStore()
        # content -> physical id: the fingerprint index's part, which a
        # restart loses and a sweep leaves stale (a stale id is a miss).
        index: dict[int, int] = {}
        for name, slot, content in ops:
            if name == "map":
                physical_id = index.get(content)
                if store.lookup(physical_id) is None:
                    physical_id = store.store_unique(4096, 2048)
                    index[content] = physical_id
                store.map_logical(slot * 4096, physical_id)
            elif name == "unmap":
                try:
                    store.unmap_logical(slot * 4096)
                except MetadataError:
                    pass  # unmapped offset: legal refusal
            elif name == "restart":
                index.clear()
            else:
                store.sweep_unreferenced()
            store.verify_invariants()
        assert store.logical_bytes == len(store.mapped_offsets()) * 4096

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_refcounts_equal_mapping_multiplicity_property(self, writes):
        store = MetadataStore()
        ids = {}
        for offset_slot, content in enumerate(writes):
            if content not in ids:
                ids[content] = store.store_unique(4096, 1024)
            store.map_logical(offset_slot * 4096, ids[content])
        from collections import Counter
        multiplicity = Counter(writes)
        for content, expected in multiplicity.items():
            assert store.record(ids[content]).refcount == expected
