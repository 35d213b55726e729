"""The runtime twin of the memo-purity contract (verify_memos).

The static REP701/REP702 rules prove the memoized producers pure and
the shared views unmutated *as written*; :class:`repro.verify.
MemoVerifier` re-checks the same invariants on a live pipeline.  These
tests pin the three behaviours the twin is trusted for: a clean
pipeline verifies clean with byte-identical reports, a deliberately
poisoned memo entry is caught on its first reuse, and frozen batch
columns turn aliasing writes into immediate errors.
"""

import collections

import numpy as np
import pytest

from repro.compression.memo import CodecMemo
from repro.compression.quicklz import QuickLzCodec
from repro.core.calibration import run_mode
from repro.core.config import PipelineConfig
from repro.core.modes import IntegrationMode
from repro.errors import SanitizerError
from repro.sim import Environment
from repro.tenancy import TenantMix, TenantSpec
from repro.tenancy.runner import run_tenant_mix
from repro.verify import MemoVerifier
from repro.workload.vdbench import VdbenchStream


class TestSampling:
    def test_first_hit_always_replays(self):
        verifier = MemoVerifier(sample_every=1000)
        calls = []
        verifier.on_hit("site", b"x", lambda: calls.append(1) or b"x")
        assert calls == [1]
        assert verifier.hits_replayed == 1

    def test_deterministic_cadence_per_site(self):
        verifier = MemoVerifier(sample_every=4)
        for _ in range(8):
            verifier.on_hit("site", b"x", lambda: b"x")
        # Hits 1 and 5 are in the sample, the rest are not.
        assert verifier.hits_seen == 8
        assert verifier.hits_replayed == 2
        assert not verifier.violations

    def test_sites_sample_independently(self):
        verifier = MemoVerifier(sample_every=16)
        for site in ("a", "b", "c"):
            verifier.on_hit(site, b"x", lambda: b"x")
        assert verifier.hits_replayed == 3

    def test_bad_sample_every_rejected(self):
        with pytest.raises(ValueError):
            MemoVerifier(sample_every=0)


class TestDivergence:
    def test_divergent_replay_is_recorded(self):
        verifier = MemoVerifier(sample_every=1)
        verifier.on_hit("codec:quicklz", b"cached", lambda: b"fresh")
        assert len(verifier.violations) == 1
        assert "codec:quicklz" in verifier.violations[0]
        assert verifier.finish_violations() == verifier.violations

    def test_numpy_values_compare_by_content(self):
        verifier = MemoVerifier(sample_every=1)
        verifier.on_hit("arr", np.arange(4), lambda: np.arange(4))
        assert not verifier.violations
        verifier.on_hit("arr2", np.arange(4), lambda: np.arange(5))
        assert len(verifier.violations) == 1

    def test_violation_list_is_capped(self):
        verifier = MemoVerifier(sample_every=1)
        for i in range(50):
            verifier.on_hit(f"site{i}", b"a", lambda: b"b")
        assert len(verifier.violations) == 32
        assert verifier.hits_replayed == 50

    def test_finish_check_surfaces_violations(self):
        env = Environment()
        verifier = MemoVerifier(sample_every=1)
        env.register_finishable(verifier)
        verifier.on_hit("poisoned", b"a", lambda: b"b")
        with pytest.raises(SanitizerError, match="poisoned"):
            env.finish_check()


class TestFreezing:
    def test_frozen_array_rejects_writes_same_object(self):
        verifier = MemoVerifier()
        array = np.arange(8, dtype=np.int64)
        out = verifier.freeze_array(array)
        assert out is array
        assert verifier.arrays_frozen == 1
        with pytest.raises(ValueError):
            array[0] = 99

    def test_freeze_is_idempotent(self):
        verifier = MemoVerifier()
        array = np.arange(4)
        verifier.freeze_array(array)
        verifier.freeze_array(array)
        assert verifier.arrays_frozen == 1

    def test_vdbench_batch_columns_frozen(self):
        stream = VdbenchStream(seed=7)
        stream.verifier = MemoVerifier()
        batch = stream.next_batch(16)
        with pytest.raises(ValueError):
            batch.offsets[0] = 999
        with pytest.raises(ValueError):
            batch.sizes[0] = 0


class TestCodecMemoTwin:
    def test_clean_codec_hits_verify_clean(self):
        codec = QuickLzCodec(memo=CodecMemo())
        codec.memo.verifier = MemoVerifier(sample_every=1)
        data = bytes(range(256)) * 8
        blob = codec.encode(data)
        assert codec.encode(data) == blob  # memo hit, replayed
        assert codec.memo.verifier.hits_seen == 1
        assert codec.memo.verifier.hits_replayed == 1
        assert not codec.memo.verifier.violations

    def test_poisoned_memo_entry_caught_on_first_reuse(self):
        from repro.compression.memo import payload_fingerprint
        codec = QuickLzCodec(memo=CodecMemo())
        codec.memo.verifier = MemoVerifier(sample_every=1)
        data = bytes(range(256)) * 8
        codec.encode(data)
        key = (QuickLzCodec._MEMO_TAG, payload_fingerprint(data))
        codec.memo._entries[key] = b"\x00corrupted"
        codec.encode(data)
        assert len(codec.memo.verifier.violations) == 1
        assert "codec:quicklz" in codec.memo.verifier.violations[0]


class TestPipelineIntegration:
    def test_cpu_only_payload_run_verifies_clean(self):
        config = PipelineConfig(verify_memos=True)
        # run() calls finish_check when verify_memos is set; a clean
        # run completing at all means zero divergences.
        report = run_mode(IntegrationMode.CPU_ONLY, 512,
                          base_config=config, payload=True)
        assert report.chunks == 512

    def test_gpu_comp_payload_run_verifies_clean(self):
        config = PipelineConfig(verify_memos=True)
        report = run_mode(IntegrationMode.GPU_COMP, 512,
                          base_config=config, payload=True)
        assert report.chunks == 512

    def test_verification_leaves_reports_byte_identical(self):
        plain = run_mode(IntegrationMode.CPU_ONLY, 512, payload=True)
        verified = run_mode(IntegrationMode.CPU_ONLY, 512,
                            base_config=PipelineConfig(verify_memos=True),
                            payload=True)
        assert plain == verified

    def test_tenant_mix_payload_run_verifies_workload_caches(
            self, monkeypatch):
        """--tenants --payload --verify-memos reaches the tenant streams."""
        sites = collections.Counter()
        on_hit = MemoVerifier.on_hit

        def spy(verifier, site, cached, recompute):
            sites[site] += 1
            on_hit(verifier, site, cached, recompute)

        monkeypatch.setattr(MemoVerifier, "on_hit", spy)
        mix = TenantMix(tenants=(
            TenantSpec(name="a", seed=1, dedup_ratio=3.0),
            TenantSpec(name="b", seed=2, dedup_ratio=3.0)), seed=5)
        report = run_tenant_mix(
            mix, IntegrationMode.CPU_ONLY, 256,
            base_config=PipelineConfig(verify_memos=True), payload=True)
        assert report.pipeline.chunks == 256
        assert sites["vdbench-payload"] > 0
