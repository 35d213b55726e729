"""Batched-vs-per-chunk equivalence over adversarial corpora.

The batched functional plane's contract is *byte identity*: batching
only untimed functional work, every ``PipelineReport`` field —
duration, counters, utilizations, the shutdown drain's tail — must be
the same whatever the window size, down to ``functional_batch=1``
(one chunk at a time), not approximately but exactly (DESIGN.md §12).
The hypothesis suite here hammers that claim with the corpora most
likely to break a batch-level shortcut:

- **dup-heavy** — a handful of payloads repeated, so almost every
  chunk is a dedup hit;
- **all-zero** — one degenerate payload, every chunk the same content;
- **incompressible** — pseudorandom bytes, the expansion-guard path;
- **byte-shifted** — rotations of one payload: near-identical content
  with distinct fingerprints.

The deterministic tests below pin the component-level identities the
end-to-end property rests on: batched vdbench emission, window
fingerprinting, window compression and FTL run accounting.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunkbatch import iter_windows
from repro.compression.parallel_cpu import CpuCompressor
from repro.core import IntegrationMode, PipelineConfig, ReductionPipeline
from repro.dedup.hashing import fingerprint_chunk, fingerprint_window
from repro.errors import DedupError
from repro.sim import Environment
from repro.storage import Ftl, FtlSpec
from repro.types import Chunk
from repro.workload import VdbenchStream

CHUNK_SIZE = 256
CORPORA = ("dup_heavy", "all_zero", "incompressible", "byte_shifted")


def corpus_payloads(kind: str, n: int, seed: int) -> list[bytes]:
    rng = random.Random(seed)
    if kind == "dup_heavy":
        base = [rng.randbytes(CHUNK_SIZE) for _ in range(3)]
        return [base[rng.randrange(3)] for _ in range(n)]
    if kind == "all_zero":
        return [bytes(CHUNK_SIZE)] * n
    if kind == "incompressible":
        return [rng.randbytes(CHUNK_SIZE) for _ in range(n)]
    if kind == "byte_shifted":
        base = rng.randbytes(CHUNK_SIZE)
        return [base[i % CHUNK_SIZE:] + base[:i % CHUNK_SIZE]
                for i in range(n)]
    raise AssertionError(kind)


def corpus_chunks(payloads: list[bytes]) -> list[Chunk]:
    """Fresh Chunk objects (the pipeline mutates them in place)."""
    return [Chunk(offset=i * CHUNK_SIZE, size=CHUNK_SIZE, payload=p)
            for i, p in enumerate(payloads)]


def run_report(payloads: list[bytes], mode: IntegrationMode,
               functional_batch: int, dedup: bool = True) -> dict:
    """One full pipeline run (shutdown drain included) as a dict."""
    config = PipelineConfig(
        mode=mode, functional_batch=functional_batch, enable_dedup=dedup,
        window=16, gpu_index_batch=8, gpu_comp_batch=8,
        gpu_batch_wait_s=5e-4, bin_buffer_capacity=8,
        bin_buffer_total=64)
    env = Environment()
    pipeline = ReductionPipeline(env, config)
    chunks = corpus_chunks(payloads)
    report = pipeline.run(iter(chunks), total=len(chunks))
    return dataclasses.asdict(report)


class TestEndToEndEquivalence:
    @given(kind=st.sampled_from(CORPORA),
           mode=st.sampled_from(list(IntegrationMode)),
           n=st.integers(4, 40),
           seed=st.integers(0, 10**6),
           dedup=st.booleans())
    @settings(max_examples=16, deadline=None)
    def test_batched_report_is_byte_identical_property(
            self, kind, mode, n, seed, dedup):
        # dedup off is the configuration whose codec work the feeder
        # pre-dispatches per window.
        payloads = corpus_payloads(kind, n, seed)
        per_chunk = run_report(payloads, mode, 1, dedup)
        assert run_report(payloads, mode, 8, dedup) == per_chunk
        assert run_report(payloads, mode, n, dedup) == per_chunk

    @pytest.mark.parametrize("mode", list(IntegrationMode))
    @pytest.mark.parametrize("kind", CORPORA)
    def test_every_corpus_mode_pair(self, kind, mode):
        payloads = corpus_payloads(kind, 24, seed=7)
        per_chunk = run_report(payloads, mode, functional_batch=1)
        assert run_report(payloads, mode, functional_batch=8) == per_chunk
        assert run_report(payloads, mode, functional_batch=24) == per_chunk


class TestBatchedWorkload:
    @pytest.mark.parametrize("payload", [False, True])
    def test_chunks_batched_equals_chunks(self, payload):
        kwargs = dict(dedup_ratio=2.0, comp_ratio=2.0, seed=97,
                      chunk_size=512, payload=payload)
        plain = list(VdbenchStream(**kwargs).chunks(300))
        windowed = list(VdbenchStream(**kwargs).chunks_batched(
            300, window=64))
        assert len(plain) == len(windowed)
        for a, b in zip(plain, windowed):
            assert (a.offset, a.size, a.payload, a.fingerprint,
                    a.comp_ratio) == (b.offset, b.size, b.payload,
                                      b.fingerprint, b.comp_ratio)

    def test_stream_stats_identical(self):
        a = VdbenchStream(dedup_ratio=3.0, comp_ratio=1.5, seed=5)
        b = VdbenchStream(dedup_ratio=3.0, comp_ratio=1.5, seed=5)
        list(a.chunks(500))
        list(b.chunks_batched(500, window=32))
        assert a.stats.__dict__ == b.stats.__dict__


class TestFingerprintWindow:
    def test_matches_per_chunk_hashing(self):
        payloads = corpus_payloads("dup_heavy", 64, seed=3)
        reference = corpus_chunks(payloads)
        for chunk in reference:
            fingerprint_chunk(chunk)
        windowed = corpus_chunks(payloads)
        for window in iter_windows(iter(windowed), 16):
            fingerprint_window(window)
        assert [c.fingerprint for c in windowed] == \
            [c.fingerprint for c in reference]

    def test_descriptor_passthrough_and_error(self):
        stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=1)
        window = list(stream.chunks(8))
        before = [c.fingerprint for c in window]
        fingerprint_window(window)
        assert [c.fingerprint for c in window] == before
        bare = Chunk(offset=0, size=64)
        with pytest.raises(DedupError):
            fingerprint_window([bare])


class TestCompressWindow:
    def test_matches_per_chunk_compress(self):
        payloads = corpus_payloads("byte_shifted", 48, seed=9)
        reference = corpus_chunks(payloads)
        ref_comp = CpuCompressor()
        ref_results = [ref_comp.compress(c) for c in reference]
        windowed = corpus_chunks(payloads)
        win_comp = CpuCompressor()
        win_results = []
        for window in iter_windows(iter(windowed), 16):
            win_results.extend(win_comp.compress_window(window))
        assert [r.compressed_size for r in win_results] == \
            [r.compressed_size for r in ref_results]
        assert [c.compressed_size for c in windowed] == \
            [c.compressed_size for c in reference]
        assert win_comp.stats() == ref_comp.stats()


class TestFtlWriteRun:
    def test_state_identical_to_per_page_writes(self):
        spec = FtlSpec(blocks=24, pages_per_block=16, gc_low_water=2)
        rng = random.Random(13)
        workload = [rng.randrange(220) for _ in range(8000)]
        per_page = Ftl(spec)
        for lpn in workload:
            per_page.write(lpn)
        run = Ftl(spec)
        run.write_run(workload)
        per_page.check_invariants()
        run.check_invariants()
        assert list(per_page._mapping.items()) == \
            list(run._mapping.items())
        assert per_page._free == run._free
        assert per_page.erase_counts() == run.erase_counts()
        assert (per_page.host_pages_written, per_page.nand_pages_written,
                per_page.gc_copies, per_page.erases) == \
            (run.host_pages_written, run.nand_pages_written,
             run.gc_copies, run.erases)
        assert per_page.write_amplification() == \
            run.write_amplification()
