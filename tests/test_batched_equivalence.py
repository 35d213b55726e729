"""One functional path per stage, held to its per-item oracle.

Each functional stage has one implementation in ``src/``: the windowed
vdbench and tenant-mix emission (``next_batch``/``chunks``), window
fingerprinting, window compression and FTL page runs.  The per-chunk
formulations they replaced live in ``tests/reference_paths.py``; the
deterministic tests below compare the two element-wise.

The end-to-end contract is *byte identity*: batching only untimed
functional work, every ``PipelineReport`` field — duration, counters,
utilizations, the shutdown drain's tail — must be the same whatever
``FUNCTIONAL_WINDOW`` is, down to 1 (one chunk at a time), not
approximately but exactly (DESIGN.md §12).  The hypothesis suite here
hammers that claim with the corpora most likely to break a batch-level
shortcut:

- **dup-heavy** — a handful of payloads repeated, so almost every
  chunk is a dedup hit;
- **all-zero** — one degenerate payload, every chunk the same content;
- **incompressible** — pseudorandom bytes, the expansion-guard path;
- **byte-shifted** — rotations of one payload: near-identical content
  with distinct fingerprints.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunkbatch import iter_windows
from repro.compression.parallel_cpu import CpuCompressor
from repro.core import IntegrationMode, PipelineConfig
from repro.dedup.hashing import fingerprint_chunk, fingerprint_window
from repro.errors import DedupError
from repro.storage import Ftl, FtlSpec
from repro.tenancy import TenantMix, TenantMixStream, TenantSpec
from repro.types import Chunk, DEFAULT_CHUNK_SIZE
from repro.workload import VdbenchStream
from tests.reference_paths import (ReferenceTenantMixStream,
                                   ReferenceVdbenchStream,
                                   reference_fingerprint)
from tests.test_pipeline import build_pipeline

CHUNK_SIZE = 256
CORPORA = ("dup_heavy", "all_zero", "incompressible", "byte_shifted")
#: Dials that exercise every branch of the decision loop: duplicates
#: both inside and outside a small working set, and many uniques.
STREAM_DIALS = dict(dedup_ratio=3.0, comp_ratio=2.0, seed=97,
                    locality=0.7, working_set=16)


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
    """Fresh Chunk objects (the pipeline mutates them in place), one
    short chunk per logical block."""
    return [Chunk(offset=i * DEFAULT_CHUNK_SIZE, size=CHUNK_SIZE, payload=p)
            for i, p in enumerate(payloads)]


def columns(chunk: Chunk) -> tuple:
    return (chunk.tenant, chunk.offset, chunk.size, chunk.payload,
            chunk.fingerprint, chunk.comp_ratio)


def run_report(payloads: list[bytes], mode: IntegrationMode,
               window: int, dedup: bool = True) -> dict:
    """One full pipeline run (shutdown drain included) as a dict, fed
    ``window`` chunks at a time."""
    config = PipelineConfig(
        mode=mode, enable_dedup=dedup, window=16, gpu_index_batch=8,
        gpu_comp_batch=8, gpu_batch_wait_s=5e-4, bin_buffer_capacity=8,
        bin_buffer_total=64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.chunkbatch.FUNCTIONAL_WINDOW", window)
        pipeline = build_pipeline(config)
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
        payloads = corpus_payloads(kind, n, seed)
        per_chunk = run_report(payloads, mode, 1, dedup)
        assert run_report(payloads, mode, 8, dedup) == per_chunk
        assert run_report(payloads, mode, n, dedup) == per_chunk

    @pytest.mark.parametrize("mode", list(IntegrationMode))
    @pytest.mark.parametrize("kind", CORPORA)
    def test_every_corpus_mode_pair(self, kind, mode):
        payloads = corpus_payloads(kind, 24, seed=7)
        per_chunk = run_report(payloads, mode, window=1)
        assert run_report(payloads, mode, window=8) == per_chunk
        assert run_report(payloads, mode, window=24) == per_chunk


class TestBatchedWorkload:
    @pytest.mark.parametrize("window", [1, 7, 64])
    @pytest.mark.parametrize("payload", [False, True],
                             ids=["descriptor", "payload"])
    def test_vdbench_matches_oracle(self, payload, window, monkeypatch):
        monkeypatch.setattr("repro.chunkbatch.FUNCTIONAL_WINDOW", window)
        got = list(VdbenchStream(payload=payload, **STREAM_DIALS)
                   .chunks(300))
        want = ReferenceVdbenchStream(payload=payload,
                                      **STREAM_DIALS).chunks(300)
        assert [columns(c) for c in got] == [columns(c) for c in want]

    def test_stream_stats_identical(self):
        stream = VdbenchStream(dedup_ratio=3.0, comp_ratio=1.5, seed=5)
        oracle = ReferenceVdbenchStream(dedup_ratio=3.0, comp_ratio=1.5,
                                        seed=5)
        list(stream.chunks(500))
        oracle.chunks(500)
        assert stream.stats.__dict__ == oracle.stats.__dict__

    @pytest.mark.parametrize("payload", [False, True],
                             ids=["descriptor", "payload"])
    def test_interleaved_calls_match_oracle(self, payload):
        stream = VdbenchStream(payload=payload, **STREAM_DIALS)
        got = [stream.next_chunk() for _ in range(3)]
        got += stream.chunks(100)
        got.append(stream.next_chunk())
        got += stream.next_batch(5)
        got += stream.chunks(70)
        got.append(stream.next_chunk())
        oracle = ReferenceVdbenchStream(payload=payload, **STREAM_DIALS)
        want = oracle.chunks(len(got))
        assert [columns(c) for c in got] == [columns(c) for c in want]
        assert stream.stats.__dict__ == oracle.stats.__dict__

    @pytest.mark.parametrize("tenants", [1, 2, 3])
    def test_tenant_mix_matches_oracle(self, tenants):
        specs = (
            TenantSpec(name="a", seed=1, weight=2.0, dedup_ratio=3.0),
            TenantSpec(name="b", seed=2, weight=3.0, dedup_ratio=1.5),
            TenantSpec(name="c", seed=3, locality=0.9, working_set=16),
        )[:tenants]
        mix = TenantMix(tenants=specs, seed=42)
        got = list(TenantMixStream(mix).chunks(600))
        want = ReferenceTenantMixStream(mix).chunks(600)
        assert [columns(c) for c in got] == [columns(c) for c in want]

    def test_payload_tenant_mix_matches_oracle(self):
        mix = TenantMix(tenants=(
            TenantSpec(name="hot", seed=5, dedup_ratio=4.0, locality=0.9),
            TenantSpec(name="cold", seed=6, weight=0.5),
        ), seed=8)
        got = list(TenantMixStream(mix, payload=True).chunks(200))
        want = ReferenceTenantMixStream(mix, payload=True).chunks(200)
        assert [columns(c) for c in got] == [columns(c) for c in want]


class TestFingerprintWindow:
    def test_matches_per_chunk_hashing(self, monkeypatch):
        monkeypatch.setattr("repro.chunkbatch.FUNCTIONAL_WINDOW", 16)
        payloads = corpus_payloads("dup_heavy", 64, seed=3)
        reference = corpus_chunks(payloads)
        want = [reference_fingerprint(chunk) for chunk in reference]
        windowed = corpus_chunks(payloads)
        got = []
        for window in iter_windows(iter(windowed)):
            got += fingerprint_window(window)
        assert got == want
        assert [c.fingerprint for c in windowed] == \
            [c.fingerprint for c in reference]
        single = corpus_chunks(payloads[:1])[0]
        assert fingerprint_chunk(single) == want[0]

    def test_descriptor_passthrough_and_error(self):
        stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=1)
        window = list(stream.chunks(8))
        before = [c.fingerprint for c in window]
        assert fingerprint_window(window) == before
        assert [c.fingerprint for c in window] == before
        # A chunk with neither payload nor fingerprint fails the window
        # where the per-chunk stage fails, after hashing what precedes it.
        payloads = corpus_payloads("incompressible", 3, seed=4)
        for hash_all in (fingerprint_window,
                         lambda chunks: [reference_fingerprint(c)
                                         for c in chunks]):
            chunks = corpus_chunks(payloads)
            chunks.insert(2, Chunk(offset=9 * CHUNK_SIZE,
                                   size=CHUNK_SIZE))
            with pytest.raises(DedupError):
                hash_all(chunks)
            assert [c.fingerprint is not None for c in chunks] == \
                [True, True, False, False]
        with pytest.raises(DedupError):
            fingerprint_chunk(Chunk(offset=0, size=64))


class TestCompressWindow:
    def test_matches_per_chunk_compress(self, monkeypatch):
        """Encoding a window's distinct payloads ahead, then compressing
        every chunk, is compressing every chunk inline."""
        monkeypatch.setattr("repro.chunkbatch.FUNCTIONAL_WINDOW", 16)
        payloads = corpus_payloads("byte_shifted", 48, seed=9)
        payloads += corpus_payloads("all_zero", 8, seed=9)
        reference = corpus_chunks(payloads)
        ref_comp = CpuCompressor()
        ref_results = [ref_comp.compress(c) for c in reference]
        windowed = corpus_chunks(payloads)
        win_comp = CpuCompressor()
        win_results = []
        for window in iter_windows(iter(windowed)):
            fingerprint_window(window)
            distinct = list({c.fingerprint: c for c in window}.values())
            win_comp.compress_window(distinct)
            win_results.extend(win_comp.compress(c) for c in window)
        assert win_results == ref_results
        assert [c.compressed_size for c in windowed] == \
            [c.compressed_size for c in reference]
        assert win_comp.stats() == ref_comp.stats()
        assert win_comp.ahead == {}
        assert (win_comp.encoded_ahead, win_comp.encoded_inline) == \
            (len(set(payloads)), len(payloads) - len(set(payloads)))
        assert (ref_comp.encoded_ahead, ref_comp.encoded_inline) == \
            (0, len(payloads))


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
        assert [b.erases for b in per_page._blocks] == \
            [b.erases for b in run._blocks]
        assert (per_page.host_pages_written, per_page.nand_pages_written,
                per_page.gc_copies, per_page.erases) == \
            (run.host_pages_written, run.nand_pages_written,
             run.gc_copies, run.erases)
        assert per_page.write_amplification() == \
            run.write_amplification()
