"""Tests for the vdbench-substitute workload package."""

import hashlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.types import DEFAULT_CHUNK_SIZE
from repro.workload import (
    BlockContentGenerator,
    TraceRecord,
    TraceRecorder,
    VdbenchStream,
    ZipfPattern,
    measured_ratios,
)
from repro.workload.datagen import _MOTIF, analytic_random_fraction
from tests.reference_paths import _extend_random


class CountingRandom(random.Random):
    """``random.Random`` that counts the 32-bit words it hands out."""

    words = 0

    def random(self):
        self.words += 2
        return super().random()

    def getrandbits(self, k):
        self.words += -(-k // 32)
        return super().getrandbits(k)


def reference_block(generator, size, salt, rng=None):
    """``make_block`` as one ``random()`` per granule, one
    ``randrange(256)`` per random byte, one ``randrange(32)`` per motif."""
    rng = rng or random.Random(f"{generator._seed}:{salt}")
    out = bytearray()
    while len(out) < size:
        take = min(generator.granule, size - len(out))
        if rng.random() < generator.random_fraction:
            out.extend(rng.randrange(256) for _ in range(take))
        else:
            phase = rng.randrange(len(_MOTIF))
            motif = _MOTIF[phase:] + _MOTIF[:phase]
            out.extend((motif * (take // len(motif) + 1))[:take])
    return bytes(out)


class TestBlockContentGenerator:
    def test_deterministic_per_salt(self):
        g1 = BlockContentGenerator(2.0, seed=5)
        g2 = BlockContentGenerator(2.0, seed=5)
        assert g1.make_block(4096, salt=7) == g2.make_block(4096, salt=7)

    def test_different_salts_differ(self):
        g = BlockContentGenerator(2.0, seed=5)
        assert g.make_block(4096, salt=1) != g.make_block(4096, salt=2)

    def test_calibration_hits_target(self):
        for target in (1.3, 2.0, 3.0):
            g = BlockContentGenerator(target, seed=3)
            achieved = g.calibrate(tolerance=0.05)
            assert achieved == pytest.approx(target, rel=0.08)

    def test_ratio_monotone_in_target(self):
        low = BlockContentGenerator(1.2, seed=1)
        high = BlockContentGenerator(3.5, seed=1)
        low.calibrate()
        high.calibrate()
        high_ratio, low_ratio = measured_ratios(
            [high.make_block(4096, salt=0), low.make_block(4096, salt=0)])
        assert high_ratio > low_ratio

    def test_random_granules_are_randrange_bytes(self):
        """The unrolled rejection loop draws exactly what per-byte
        ``rng.randrange(256)`` draws and leaves the generator where it
        would: a stdlib drift in ``Random._randbelow`` shows here."""
        for seed in range(40):
            for salt in range(30):
                fast = random.Random(f"{seed}:{salt}")
                slow = random.Random(f"{seed}:{salt}")
                count = 1 + (seed * 30 + salt) % 97
                out = bytearray()
                _extend_random(out, fast, count)
                assert bytes(out) == bytes(
                    slow.randrange(256) for _ in range(count))
                assert fast.random() == slow.random()

    def test_blocks_match_the_randrange_generator(self, monkeypatch):
        """The permanent identity check of the pooled ``make_block``: per
        granule ``rng.random()``, per byte ``rng.randrange(256)``, per
        motif ``rng.randrange(32)`` — whatever the granule, the size, the
        fraction, and however often the pool runs dry."""
        checked = 0
        for seed, ratio in ((1, 1.0), (2, 1.3), (3, 2.0), (4, 3.0)):
            fractions = random.Random(seed)
            for granule in (8, 37, 64, 100):
                generator = BlockContentGenerator(ratio, seed=seed,
                                                  granule=granule)
                drawn = generator.random_fraction
                for salt in range(6):
                    # 1, 63, 65, 100 and 4000 end in a short last granule
                    # for some or all of the granules above.
                    for size in (1, 63, 64, 65, 100, 4000, 4096, 16384):
                        for fraction in (0.0, 1.0, drawn,
                                         fractions.random()):
                            generator.random_fraction = fraction
                            assert generator.make_block(size, salt=salt) \
                                == reference_block(generator, size, salt)
                            checked += 1
        assert checked >= 2000

        # A pool of 50 words runs dry in nearly every granule: the stream
        # continues in the next slab and the bytes do not move.
        monkeypatch.setattr(BlockContentGenerator, "_pool_words",
                            lambda self, size: 50)
        generator = BlockContentGenerator(2.0, seed=3)
        for salt in range(50):
            assert generator.make_block(4096, salt=salt) \
                == reference_block(generator, 4096, salt)
        assert generator.refills > 50
        assert generator.words_drawn == 50 * (50 + generator.refills)

    def test_pool_is_neither_short_nor_wasteful(self):
        """Census, no clock: at the ratios the payload workloads draw, no
        block runs its pool dry (a refill is a second round of array
        passes) and the pool stays within 2.5x of the words consumed."""
        for comp_ratio in (2.0, 3.0):
            stream = VdbenchStream(seed=77, dedup_ratio=1.0,
                                   comp_ratio=comp_ratio, payload=True)
            stream.next_batch(1000)
            census = stream._content
            assert census.blocks == 1000 and census.refills == 0
            used = 0
            for unique_id, ratio in enumerate(stream._unique_ratios):
                stream._content.random_fraction = \
                    analytic_random_fraction(ratio)
                rng = CountingRandom(f"{stream.seed}:{unique_id}")
                reference_block(stream._content, DEFAULT_CHUNK_SIZE,
                                unique_id, rng)
                used += rng.words
            assert used < census.words_drawn <= 2.5 * used

    def test_invalid_ratio_rejected(self):
        with pytest.raises(WorkloadError):
            BlockContentGenerator(0.5, seed=0)

    def test_invalid_size_rejected(self):
        with pytest.raises(WorkloadError):
            BlockContentGenerator(2.0, seed=0).make_block(0)


class TestVdbenchStream:
    def test_dedup_ratio_converges(self):
        stream = VdbenchStream(dedup_ratio=2.0, seed=11)
        for _ in stream.chunks(8000):
            pass
        stats = stream.stats
        assert stats.chunks / stats.uniques == pytest.approx(2.0, rel=0.07)

    def test_dedup_ratio_three(self):
        stream = VdbenchStream(dedup_ratio=3.0, seed=11)
        for _ in stream.chunks(9000):
            pass
        stats = stream.stats
        assert stats.chunks / stats.uniques == pytest.approx(3.0, rel=0.08)

    def test_no_dedup_all_unique(self):
        stream = VdbenchStream(dedup_ratio=1.0, seed=2)
        chunks = list(stream.chunks(100))
        fingerprints = {c.fingerprint for c in chunks}
        assert len(fingerprints) == 100

    def test_descriptor_chunks_carry_fingerprints_and_ratios(self):
        stream = VdbenchStream(seed=4)
        chunk = stream.next_chunk()
        assert chunk.payload is None
        assert len(chunk.fingerprint) == 20
        assert chunk.comp_ratio >= 1.0

    def test_duplicates_share_fingerprints(self):
        stream = VdbenchStream(dedup_ratio=4.0, seed=8)
        chunks = list(stream.chunks(2000))
        assert len({c.fingerprint for c in chunks}) == stream.stats.uniques

    def test_payload_mode_duplicates_are_byte_identical(self):
        stream = VdbenchStream(dedup_ratio=3.0, seed=6, payload=True)
        chunks = list(stream.chunks(300))
        digests = [hashlib.sha1(c.payload).digest() for c in chunks]
        ratio = len(digests) / len(set(digests))
        assert ratio == pytest.approx(3.0, rel=0.2)

    def test_payload_mode_compression_dial(self):
        stream = VdbenchStream(comp_ratio=2.0, dedup_ratio=1.0, seed=6,
                               payload=True)
        ratios = measured_ratios([c.payload for c in stream.chunks(20)])
        mean = sum(ratios) / len(ratios)
        assert mean == pytest.approx(2.0, rel=0.2)

    def test_offsets_are_sequential(self):
        stream = VdbenchStream(seed=1)
        chunks = list(stream.chunks(10))
        assert [c.offset for c in chunks] == [i * 4096 for i in range(10)]

    def test_locality_increases_recent_duplicates(self):
        local = VdbenchStream(dedup_ratio=2.0, seed=3, locality=1.0,
                              working_set=16)
        spread = VdbenchStream(dedup_ratio=2.0, seed=3, locality=0.0)

        def recent_fraction(stream):
            seen = []
            recent = 0
            dups = 0
            for chunk in stream.chunks(4000):
                if chunk.fingerprint in seen[-64:]:
                    recent += 1
                if chunk.fingerprint in seen:
                    dups += 1
                seen.append(chunk.fingerprint)
            return recent / max(1, dups)

        assert recent_fraction(local) > recent_fraction(spread) + 0.3

    def test_determinism(self):
        a = [c.fingerprint for c in VdbenchStream(seed=42).chunks(200)]
        b = [c.fingerprint for c in VdbenchStream(seed=42).chunks(200)]
        assert a == b

    def test_invalid_dials_rejected(self):
        with pytest.raises(WorkloadError):
            VdbenchStream(dedup_ratio=0.5, seed=0)
        with pytest.raises(WorkloadError):
            VdbenchStream(comp_ratio=0.0, seed=0)
        with pytest.raises(WorkloadError):
            VdbenchStream(locality=2.0, seed=0)

    def test_seed_is_required(self):
        with pytest.raises(TypeError):
            VdbenchStream()


class TestPatterns:
    def test_zipf_in_range_and_deterministic(self):
        a = ZipfPattern(100, seed=1)
        b = ZipfPattern(100, seed=1)
        draws_a = [a.next_slot() for _ in range(50)]
        draws_b = [b.next_slot() for _ in range(50)]
        assert draws_a == draws_b
        assert all(0 <= d < 100 for d in draws_a)

    def test_zipf_skews_to_low_slots(self):
        pattern = ZipfPattern(1000, skew=1.2, seed=3)
        draws = [pattern.next_slot() for _ in range(3000)]
        top_ten = sum(1 for d in draws if d < 10)
        assert top_ten / len(draws) > 0.3

    def test_zipf_invalid_skew(self):
        with pytest.raises(WorkloadError):
            ZipfPattern(10, skew=0.0, seed=0)

    def test_empty_pattern_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfPattern(0, seed=0)


def load_trace(text) -> list[TraceRecord]:
    """Parse ``TraceRecorder.dump``'s text back into records."""
    records = []
    for line in text:
        op, offset, size, *stamp = line.split()
        records.append(TraceRecord(op, int(offset), int(size),
                                   float(stamp[0]) if stamp else None))
    return records


class TestTrace:
    def test_record_roundtrip_through_text(self):
        recorder = TraceRecorder()
        recorder.record("write", 0, 4096, timestamp=1.5)
        recorder.record("read", 4096, 8192)
        text = io.StringIO()
        recorder.dump(text)
        text.seek(0)
        assert load_trace(text) == list(recorder)

    def test_total_bytes_by_op(self):
        recorder = TraceRecorder()
        recorder.record("write", 0, 100)
        recorder.record("read", 0, 50)
        recorder.record("write", 0, 200)
        assert recorder.total_bytes("write") == 300
        assert recorder.total_bytes() == 350

    def test_invalid_op_rejected(self):
        with pytest.raises(WorkloadError):
            TraceRecord("delete", 0, 10)

    @pytest.mark.parametrize("offset, size", [(-1, 10), (0, 0), (0, -5)])
    def test_invalid_extent_rejected(self, offset, size):
        with pytest.raises(WorkloadError, match="invalid extent"):
            TraceRecorder().record("write", offset, size)

    @given(st.lists(st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(0, 10**9), st.integers(1, 10**6)), max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_text_roundtrip_property(self, records):
        recorder = TraceRecorder()
        for op, offset, size in records:
            recorder.record(op, offset, size)
        text = io.StringIO()
        recorder.dump(text)
        text.seek(0)
        assert load_trace(text) == list(recorder)
