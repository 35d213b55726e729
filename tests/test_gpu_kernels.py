"""Tests for the GPU kernels and the CPU post-processing that refines them."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import host
from repro.compression import LzssCodec
from repro.compression.gpu_lz import GpuCompressor
from repro.errors import CompressionError, KernelError
from repro.gpu import GpuDevice
from repro.gpu.kernels import (
    BinLookupKernel,
    DescriptorLzKernel,
    SegmentLzKernel,
)
from repro.gpu.kernels.lz import LZ_CENSUS
from repro.sim import Environment
from repro.types import Chunk
from tests.reference_codecs import (
    ReferenceLzssCodec,
    launch_outputs,
    refine_to_container,
)
from tests.reference_paths import lookup_batch, reference_bin_lookup


def _compressible(n: int) -> bytes:
    pattern = b"storage systems love repeated patterns; " \
              b"dedup and compression exploit them. "
    return (pattern * (n // len(pattern) + 1))[:n]


def _incompressible(n: int, seed: int = 11) -> bytes:
    import random
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


def _make_table(entries):
    """Build a bin table {bin_id: (lo, hi, count)} from (bin, lo, hi)."""
    table = {}
    for bin_id, lo, hi in entries:
        lo_arr, hi_arr, count = table.get(
            bin_id, (np.zeros(16, dtype=np.uint64),
                     np.zeros(16, dtype=np.uint64), 0))
        lo_arr[count] = lo
        hi_arr[count] = hi
        table[bin_id] = (lo_arr, hi_arr, count + 1)
    return table


class TestBinLookupKernel:
    def test_hit_and_miss(self):
        table = _make_table([(0, 111, 222), (0, 333, 444), (1, 555, 666)])
        batch = lookup_batch(
            [(0, 333, 444), (1, 555, 666), (1, 999, 999), (2, 1, 1)])
        slots = BinLookupKernel(batch, table).execute()
        assert list(slots) == [1, 0, -1, -1]

    def test_matches_reference_lookup(self):
        table = _make_table(
            [(b % 4, 1000 + b, 2000 + b) for b in range(40)]
            + [(2, 1002, 2002)])    # a later twin: the first slot wins
        queries = [(b % 4, 1000 + b, 2000 + b) for b in range(0, 40, 3)]
        queries += [(0, 5, 5), (3, 7, 7), (9, 1, 1), (2, 1002, 2002)]
        batch = lookup_batch(queries)
        assert BinLookupKernel(batch, table).execute().tolist() \
            == reference_bin_lookup(batch, table)

    def test_empty_batch_rejected(self):
        with pytest.raises(KernelError):
            lookup_batch([])

    def test_cost_scales_with_bin_occupancy(self):
        small = _make_table([(0, i, i) for i in range(2)])
        big = _make_table([(0, i, i) for i in range(16)])
        batch = lookup_batch([(0, 99, 99)])
        assert (BinLookupKernel(batch, big).cost().lane_cycles_total
                > BinLookupKernel(batch, small).cost().lane_cycles_total)

    def test_unknown_bin_scans_nothing(self):
        batch = lookup_batch([(7, 1, 2)])
        kernel = BinLookupKernel(batch, {})
        assert list(kernel.execute()) == [-1]
        assert kernel.cost().critical_path_cycles == 0.0

    def test_pcie_footprint(self):
        batch = lookup_batch([(0, 1, 2)] * 100)
        kernel = BinLookupKernel(batch, {})
        assert kernel.bytes_in() == 100 * 20
        assert kernel.bytes_out() == 100 * 8


class TestSegmentLzKernel:
    def test_segments_tile_chunk(self):
        chunk = _compressible(4096)
        outputs = launch_outputs(
            SegmentLzKernel([chunk], segments_per_chunk=8).execute())
        segs = outputs[0]
        assert [s.start for s in segs] == [i * 512 for i in range(8)]
        assert segs[-1].end == 4096
        for seg in segs:
            assert seg.positions[0] == seg.start
            assert seg.positions[-1] + seg.lengths[-1] == seg.end
            assert np.array_equal(seg.positions[1:],
                                  seg.positions[:-1] + seg.lengths[:-1])

    def test_roundtrip_through_postprocess(self):
        chunk = _compressible(4096)
        outputs = launch_outputs(
            SegmentLzKernel([chunk], segments_per_chunk=8).execute())
        blob = refine_to_container(chunk, outputs[0])
        assert LzssCodec().decode(blob) == chunk

    def test_roundtrip_incompressible(self):
        chunk = _incompressible(4096)
        outputs = launch_outputs(
            SegmentLzKernel([chunk], segments_per_chunk=8).execute())
        blob = refine_to_container(chunk, outputs[0])
        assert LzssCodec().decode(blob) == chunk

    def test_multiple_chunks_independent(self):
        chunks = [_compressible(2048), _incompressible(2048)]
        outputs = launch_outputs(
            SegmentLzKernel(chunks, segments_per_chunk=4).execute())
        for chunk, per_chunk in zip(chunks, outputs):
            assert LzssCodec().decode(
                refine_to_container(chunk, per_chunk)) == chunk

    def test_ratio_close_to_serial_lzss(self):
        """Segment parallelism costs a little ratio, not a lot (A7)."""
        chunk = _compressible(4096)
        serial = len(LzssCodec().encode(chunk))
        outputs = launch_outputs(
            SegmentLzKernel([chunk], segments_per_chunk=8).execute())
        parallel = len(refine_to_container(chunk, outputs[0]))
        assert parallel <= serial * 1.25

    def test_empty_batch_rejected(self):
        with pytest.raises(KernelError):
            SegmentLzKernel([])

    def test_bad_segment_count_rejected(self):
        with pytest.raises(KernelError):
            SegmentLzKernel([b"x" * 64], segments_per_chunk=0)

    def test_single_segment_equals_greedy_serial(self):
        chunk = _compressible(1024)
        outputs = launch_outputs(
            SegmentLzKernel([chunk], segments_per_chunk=1).execute())
        blob = refine_to_container(chunk, outputs[0])
        assert blob == ReferenceLzssCodec().encode(chunk)

    def test_a_tile_past_int32_positions_rejected(self):
        """A tile whose bytes plus segment count reach 2 GiB would wrap
        its int32 positions or segment bounds, so the kernel refuses it
        when built, tile by tile (only the chunks' lengths are read:
        nothing is allocated)."""
        class Sized:
            def __init__(self, size):
                self.size = size

            def __len__(self):
                return self.size

        limit = 1 << 31
        for chunks in ([Sized(limit)], [Sized(1 << 25)] * 64,
                       [Sized(1)] * 64 + [Sized(limit - 8)]):
            with pytest.raises(KernelError, match="int32"):
                SegmentLzKernel(chunks)
        with pytest.raises(KernelError, match="int32"):
            LzssCodec().encode(Sized(limit - 1))
        # One short of the bound in each of two tiles: 4 GiB launched.
        SegmentLzKernel([Sized(1 << 25)] * 63 + [Sized((1 << 25) - 9)]
                        + [Sized(limit - 9)])
        SegmentLzKernel([Sized(limit - 2)], segments_per_chunk=1)

    @given(st.binary(min_size=1, max_size=1500), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, chunk, segments):
        outputs = launch_outputs(SegmentLzKernel(
            [chunk], segments_per_chunk=segments).execute())
        blob = refine_to_container(chunk, outputs[0])
        assert LzssCodec().decode(blob) == chunk

    @given(st.integers(0, 255), st.integers(100, 3000), st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_runs_roundtrip_property(self, byte, n, segments):
        chunk = bytes([byte]) * n
        outputs = launch_outputs(SegmentLzKernel(
            [chunk], segments_per_chunk=segments).execute())
        blob = refine_to_container(chunk, outputs[0])
        assert LzssCodec().decode(blob) == chunk


class TestPostprocessValidation:
    """Every refinement check fires on corrupted token arrays."""

    @staticmethod
    def _outputs(segments=4):
        chunk = _compressible(1024)
        outputs = launch_outputs(SegmentLzKernel(
            [chunk], segments_per_chunk=segments).execute())[0]
        for out in outputs:      # private copies: corrupt one at a time
            out.positions = out.positions.copy()
            out.lengths = out.lengths.copy()
            out.distances = out.distances.copy()
        return chunk, outputs

    @staticmethod
    def _first_match(out, minimum_position=0):
        return next(i for i, d in enumerate(out.distances.tolist())
                    if d and out.positions[i] >= minimum_position)

    def test_intact_outputs_pass(self):
        chunk, outputs = self._outputs()
        assert LzssCodec().decode(
            refine_to_container(chunk, outputs)) == chunk

    def test_gap_detected(self):
        chunk, outputs = self._outputs()
        outputs[1].start += 1  # corrupt tiling
        with pytest.raises(CompressionError, match="starts at"):
            refine_to_container(chunk, outputs)

    def test_short_cover_detected(self):
        chunk, outputs = self._outputs()
        with pytest.raises(CompressionError, match="cover"):
            refine_to_container(chunk, outputs[:-1])

    def test_wrong_expansion_detected(self):
        chunk, outputs = self._outputs()
        seg = outputs[2]        # drop the last token: now expands short
        seg.positions, seg.lengths, seg.distances = (
            seg.positions[:-1], seg.lengths[:-1], seg.distances[:-1])
        with pytest.raises(CompressionError, match="expand to"):
            refine_to_container(chunk, outputs)

    def test_token_gap_inside_segment_detected(self):
        chunk, outputs = self._outputs()
        seg = outputs[1]
        at = self._first_match(seg)
        seg.lengths[at] -= 1    # a hole the later positions step over
        with pytest.raises(CompressionError, match="expand to"):
            refine_to_container(chunk, outputs)

    def test_shifted_positions_detected(self):
        chunk, outputs = self._outputs()
        outputs[1].positions[1:] += 1   # lengths intact, offsets not
        with pytest.raises(CompressionError, match="positions"):
            refine_to_container(chunk, outputs)

    def test_token_handed_across_a_seam_detected(self):
        """The tokens still tile the chunk end to end, but segment 1's
        first token now belongs to segment 0: neither expands to its
        span."""
        chunk, outputs = self._outputs()
        left, right = outputs[0], outputs[1]
        left.positions = np.r_[left.positions, right.positions[:1]]
        left.lengths = np.r_[left.lengths, right.lengths[:1]]
        left.distances = np.r_[left.distances, right.distances[:1]]
        right.positions, right.lengths, right.distances = (
            right.positions[1:], right.lengths[1:], right.distances[1:])
        with pytest.raises(CompressionError, match="expand to"):
            refine_to_container(chunk, outputs)

    def test_all_tokens_missing_detected(self):
        chunk, outputs = self._outputs()
        for seg in outputs:
            seg.positions, seg.lengths, seg.distances = (
                seg.positions[:0], seg.lengths[:0], seg.distances[:0])
        with pytest.raises(CompressionError, match="expand to"):
            refine_to_container(chunk, outputs)

    def test_ragged_arrays_detected(self):
        chunk, outputs = self._outputs()
        outputs[0].distances = outputs[0].distances[:-1]
        with pytest.raises(CompressionError, match="disagree"):
            refine_to_container(chunk, outputs)

    def test_match_reaching_before_chunk_start_detected(self):
        chunk, outputs = self._outputs()
        seg = outputs[0]
        at = self._first_match(seg)
        seg.distances[at] = seg.positions[at] + 1
        with pytest.raises(CompressionError, match="bytes back"):
            refine_to_container(chunk, outputs)

    def test_length_outside_field_detected(self):
        chunk, outputs = self._outputs(segments=1)
        seg = outputs[0]
        at = self._first_match(seg)
        # Stretch one match over its successors, tiling intact: the only
        # thing wrong is a length the 4-bit field cannot hold.
        cover = 0
        stop = at
        while cover <= 18:
            cover += int(seg.lengths[stop])
            stop += 1
        seg.lengths[at] = cover
        keep = np.r_[0:at + 1, stop:len(seg.positions)]
        seg.positions, seg.lengths, seg.distances = (
            seg.positions[keep], seg.lengths[keep], seg.distances[keep])
        with pytest.raises(CompressionError, match="match length"):
            refine_to_container(chunk, outputs)

    def test_short_match_detected(self):
        chunk, outputs = self._outputs()
        seg = outputs[3]
        at = self._first_match(seg)
        # Re-tile one match as leading literals plus a 2-byte match:
        # the stream still covers the chunk, but no field encodes 2.
        length = int(seg.lengths[at])
        head = np.arange(length - 2, dtype=seg.positions.dtype)
        seg.positions = np.r_[seg.positions[:at], seg.positions[at] + head,
                              seg.positions[at] + length - 2,
                              seg.positions[at + 1:]]
        seg.lengths = np.r_[seg.lengths[:at], np.ones_like(head), 2,
                            seg.lengths[at + 1:]]
        seg.distances = np.r_[seg.distances[:at], np.zeros_like(head),
                              seg.distances[at], seg.distances[at + 1:]]
        with pytest.raises(CompressionError, match="match length"):
            refine_to_container(chunk, outputs)

    def test_distance_outside_window_detected(self):
        chunk = _compressible(6000)
        outputs = launch_outputs(
            SegmentLzKernel([chunk], segments_per_chunk=2).execute())[0]
        seg = outputs[1]
        seg.distances = seg.distances.copy()
        at = self._first_match(seg, minimum_position=5000)
        seg.distances[at] = 4097        # in the chunk, past the window
        with pytest.raises(CompressionError, match="outside window"):
            refine_to_container(chunk, outputs)

    def test_negative_distance_detected(self):
        chunk, outputs = self._outputs()
        outputs[0].distances[3] = -1
        with pytest.raises(CompressionError, match="outside window"):
            refine_to_container(chunk, outputs)

    def test_wide_literal_detected(self):
        chunk, outputs = self._outputs()
        seg = outputs[2]
        at = self._first_match(seg)
        seg.distances[at] = 0   # a "literal" that covers a match's bytes
        with pytest.raises(CompressionError, match="literal"):
            refine_to_container(chunk, outputs)


class TestGpuCompressorHandOff:
    """``compress_window`` -> ``make_kernel`` -> launch ->
    ``split_results`` -> ``postprocess``."""

    @staticmethod
    def _chunks(*payloads):
        return [Chunk(offset=4096 * i, size=len(payload), payload=payload,
                      fingerprint=hashlib.sha1(payload).digest())
                for i, payload in enumerate(payloads)]

    @staticmethod
    def _containers(payloads):
        launch = SegmentLzKernel(payloads).execute()
        return [refine_to_container(payload, outputs) for payload, outputs
                in zip(payloads, launch_outputs(launch))]

    def test_split_results_hands_each_chunk_its_container(self):
        self._hand_off(queued=False)

    def test_split_results_takes_the_containers_queued_ahead(self):
        self._hand_off(queued=True)

    def _hand_off(self, queued):
        chunks = self._chunks(_compressible(4096), _incompressible(4096),
                              _compressible(700))
        comp = GpuCompressor()
        if queued:
            comp.compress_window(chunks[::-1])
        sizes = comp.make_kernel(chunks).execute()
        blobs = comp.split_results(chunks, sizes)
        assert blobs == self._containers([chunk.payload
                                          for chunk in chunks])
        assert comp.ahead == {}
        results = [comp.postprocess(chunk, blob)
                   for chunk, blob in zip(chunks, blobs)]
        assert [r.blob for r in results] == [blobs[0], None, blobs[2]]
        assert [r.stored_raw for r in results] == [False, True, False]
        assert [r.compressed_size for r in results] \
            == [len(blobs[0]), 4096, len(blobs[2])]
        assert comp.bytes_out == sum(chunk.compressed_size
                                     for chunk in chunks)

    def test_a_payload_launch_is_priced_as_the_search_kernel(self):
        chunks = self._chunks(_compressible(4096), _compressible(700))
        priced = GpuCompressor().make_kernel(chunks)
        searched = SegmentLzKernel([chunk.payload for chunk in chunks])
        assert (priced.name, priced.cost(), priced.bytes_in(),
                priced.bytes_out()) == (searched.name, searched.cost(),
                                        searched.bytes_in(),
                                        searched.bytes_out())

    def test_census_sums_every_search_wherever_it_ran(self, monkeypatch):
        """A window queued ahead (a helper's search, or the caller's on
        first take) and a launch's misses searched at split time: each
        search counts once, however many launches take its containers."""
        monkeypatch.setattr(host, "usable_cpus", lambda: 2)
        comp = GpuCompressor()
        first = self._chunks(_compressible(4096), _compressible(2048))
        second = self._chunks(_incompressible(4096))
        comp.compress_window(first)
        for chunks in (second, first[1:], first[:1]):
            comp.split_results(chunks, comp.make_kernel(chunks).execute())
        searches = [SegmentLzKernel([chunk.payload for chunk in chunks])
                    .execute().census for chunks in (first, second)]
        assert searches[0]["candidate_visits"] > 0
        assert comp.lz_census == {
            name: searches[0][name] + searches[1][name]
            for name in LZ_CENSUS}

    def test_result_of_the_wrong_length_or_kind_is_rejected(self):
        comp = GpuCompressor()
        payload = self._chunks(_compressible(4096), _compressible(4096))
        descriptor = [Chunk(offset=0, size=4096, comp_ratio=2.0),
                      Chunk(offset=4096, size=4096, comp_ratio=2.0)]
        sizes = comp.make_kernel(descriptor).execute()
        assert comp.split_results(descriptor, sizes) == [2048, 2048]
        with pytest.raises(CompressionError, match="2 results "
                                                   "for 1 chunks"):
            comp.split_results(payload[:1], sizes)
        with pytest.raises(CompressionError, match="1 results "
                                                   "for 2 chunks"):
            comp.split_results(descriptor, sizes[:1])
        with pytest.raises(CompressionError, match="all-payload"):
            comp.make_kernel(payload[:1] + descriptor[:1])
        assert comp.lz_census == dict.fromkeys(LZ_CENSUS, 0)


class TestDescriptorLzKernel:
    def test_synthetic_sizes_follow_ratio(self):
        kernel = DescriptorLzKernel([4096, 4096], [2.0, 4.0])
        assert kernel.execute() == [2048, 1024]

    def test_subunit_ratio_clamped(self):
        kernel = DescriptorLzKernel([4096], [0.5])
        assert kernel.execute() == [4096]

    def test_cost_matches_payload_kernel_scale(self):
        """Descriptor and payload kernels must price similar batches in
        the same ballpark, or benchmark modes would disagree."""
        chunks = [_compressible(4096)] * 4
        payload = SegmentLzKernel(chunks, segments_per_chunk=8).cost()
        descriptor = DescriptorLzKernel([4096] * 4, [2.0] * 4).cost()
        assert descriptor.lane_cycles_total == pytest.approx(
            payload.lane_cycles_total, rel=0.01)

    def test_length_mismatch_rejected(self):
        with pytest.raises(KernelError):
            DescriptorLzKernel([4096], [2.0, 3.0])


class TestKernelsOnDevice:
    def test_lz_launch_through_device(self):
        env = Environment()
        gpu = GpuDevice(env)
        chunk = _compressible(4096)
        kernel = SegmentLzKernel([chunk] * 4, segments_per_chunk=8)
        result = {}

        def proc():
            result["out"] = yield from gpu.launch(kernel)

        env.process(proc())
        env.run()
        assert len(result["out"]) == 4
        assert env.now > gpu.spec.launch_overhead_s

    def test_index_launch_latency_floor(self):
        """Small lookup batches are latency-bound: doubling the batch
        barely moves the launch time (paper: 'execution time is fixed')."""
        env = Environment()
        gpu = GpuDevice(env)
        table = _make_table([(0, i, i) for i in range(16)])
        t_small = gpu.launch_time(BinLookupKernel(
            lookup_batch([(0, 1, 1)] * 64), table))
        t_large = gpu.launch_time(BinLookupKernel(
            lookup_batch([(0, 1, 1)] * 256), table))
        assert t_large < t_small * 1.5
