"""The tenancy plane's contracts (DESIGN.md §13).

Three claims, pinned:

1. **Degenerate identity** — a one-tenant ``TenantMix`` under the
   default ``tenancy_policy="none"`` produces a ``PipelineReport``
   byte-identical to the single-stream path, in every integration
   mode.  The mix's scheduling RNG consumes *zero* draws for one
   tenant and tenant 0's address base is offset 0, so the chunk
   streams — and therefore the timed runs — are the same objects.

2. **Estimator equivalence** — the O(1) ring-sketch locality
   estimator computes float-identical estimates to the naive
   per-chunk scan oracle in ``tests/reference_paths.py`` (same EWMA
   expressions, same window-hit predicate), and its ranking agrees
   with the streams' ground-truth locality dials.

3. **Recovery** — on the committed mixed-locality scenario,
   prioritized admission beats the shared LRU on aggregate inline
   hit rate, and inline + out-of-line compaction together recover at
   least 95% of the offline-oracle dedup ratio; every inline-skipped
   duplicate is recovered by the compaction drain.
"""

import dataclasses
import functools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference_paths import (NaiveLocalityEstimator,
                                   ReferenceTenantMixStream, report_digest)

from repro.bench.experiments import SCENARIO_MIX as SCENARIO
from repro.core import IntegrationMode, PipelineConfig
from repro.core.calibration import run_mode
from repro.errors import WorkloadError
from repro.tenancy import (
    LocalityEstimator,
    TenantMix,
    TenantMixStream,
    TenantSpec,
)
from repro.tenancy.runner import run_tenant_mix
from repro.workload import VdbenchStream

ROOT = Path(__file__).resolve().parents[1]

SCENARIO_CACHE = 96
SCENARIO_CHUNKS = 8192


class TestDegenerateIdentity:
    @pytest.mark.parametrize("mode", list(IntegrationMode))
    def test_one_tenant_mix_matches_single_stream(self, mode):
        mix = TenantMix(tenants=(TenantSpec(name="solo", seed=1234),),
                        seed=99)
        single = run_mode(mode, 512)
        multi = run_tenant_mix(mix, mode, 512)
        assert report_digest(multi.pipeline) == report_digest(single)
        assert multi.policy == "none"

    @given(seed=st.integers(0, 10**6),
           dedup_ratio=st.floats(1.0, 4.0),
           mode=st.sampled_from(list(IntegrationMode)))
    @settings(max_examples=8, deadline=None)
    def test_identity_property(self, seed, dedup_ratio, mode):
        mix = TenantMix(tenants=(TenantSpec(
            name="solo", seed=seed, dedup_ratio=dedup_ratio),), seed=0)
        single = run_mode(mode, 256, dedup_ratio=dedup_ratio, seed=seed)
        multi = run_tenant_mix(mix, mode, 256)
        assert dataclasses.asdict(multi.pipeline) == \
            dataclasses.asdict(single)

    def test_one_tenant_mix_consumes_no_parent_draws(self):
        mix = TenantMix(tenants=(TenantSpec(name="solo", seed=5),),
                        seed=1234)
        stream = TenantMixStream(mix)
        before = stream._sched_rng.getstate()
        list(stream.chunks(64))
        assert stream._sched_rng.getstate() == before


class TestMixEmission:
    MIX = TenantMix(tenants=(
        TenantSpec(name="a", seed=1, weight=2.0, dedup_ratio=3.0),
        TenantSpec(name="b", seed=2, weight=3.0, dedup_ratio=1.5),
        TenantSpec(name="c", seed=3, locality=0.9, working_set=16),
    ), seed=42)

    def test_batched_emission_is_elementwise_equal(self):
        plain = ReferenceTenantMixStream(self.MIX).chunks(600)
        windowed = list(TenantMixStream(self.MIX).chunks(600))
        assert len(plain) == len(windowed)
        for a, b in zip(plain, windowed):
            assert (a.tenant, a.offset, a.size, a.fingerprint,
                    a.comp_ratio) == (b.tenant, b.offset, b.size,
                                      b.fingerprint, b.comp_ratio)

    def test_tenant_streams_match_solo_vdbench(self):
        """Interleaving never perturbs a tenant's own content draws."""
        mix_chunks = list(TenantMixStream(self.MIX).chunks(900))
        for index, spec in enumerate(self.MIX.tenants):
            got = [c for c in mix_chunks if c.tenant == index]
            solo = VdbenchStream(
                dedup_ratio=spec.dedup_ratio,
                comp_ratio=spec.comp_ratio, seed=spec.seed,
                locality=spec.locality, working_set=spec.working_set)
            want = list(solo.chunks(len(got)))
            assert [c.fingerprint for c in got] == \
                [c.fingerprint for c in want]

    def test_closed_loop_weights_shape_traffic(self):
        counts = [0, 0, 0]
        for chunk in TenantMixStream(self.MIX).chunks(6000):
            counts[chunk.tenant] += 1
        # weights 2 : 3 : 1.
        assert counts[1] > counts[0] > counts[2]

    def test_spec_round_trips_through_json(self):
        text = json.dumps({
            "seed": self.MIX.seed,
            "tenants": [dataclasses.asdict(spec)
                        for spec in self.MIX.tenants]})
        assert TenantMix.from_json(text) == self.MIX

    def test_spec_validation(self):
        with pytest.raises(WorkloadError):
            TenantMix(tenants=(), seed=0)
        with pytest.raises(WorkloadError):
            TenantMix(tenants=(TenantSpec(name="a", seed=1),
                               TenantSpec(name="a", seed=2)), seed=0)
        with pytest.raises(WorkloadError):
            TenantMix(tenants=(TenantSpec(name="a", seed=1),
                               TenantSpec(name="b", seed=1)), seed=0)
        # Only a JSON bool: the string "false" is not a closed loop.
        with pytest.raises(WorkloadError, match="open_loop"):
            TenantMix.from_dict({
                "seed": 0, "open_loop": "false",
                "tenants": [{"name": "a", "seed": 1}]})

    @pytest.mark.parametrize("rate", [3000.0, 0, -5.0, float("nan"),
                                      float("inf")])
    def test_invalid_arrival_rate_rejected(self, rate):
        """Mixes are closed-loop: a tenant's arrival rate is refused,
        whatever its value."""
        with pytest.raises(WorkloadError, match="arrival_rate_iops"):
            TenantMix.from_dict({
                "seed": 0, "tenants": [{"name": "a", "seed": 1,
                                        "arrival_rate_iops": rate}]})

    def test_closed_loop_keys_of_the_benchmark_spec_parse(self):
        """The benchmark's spec file says ``"open_loop": false`` and
        ``"clients": 1``, which every mix is; other values are
        refused."""
        path = ROOT / "e2ebench" / "inputs" / "tenant_mix.json"
        payload = json.loads(path.read_text())
        assert payload["open_loop"] is False
        assert {tenant["clients"] for tenant in payload["tenants"]} == {1}
        mix = TenantMix.from_json(path.read_text())
        assert [spec.name for spec in mix.tenants] == ["hot", "cold"]
        with pytest.raises(WorkloadError, match="open_loop"):
            TenantMix.from_dict(dict(payload, open_loop=True))
        for clients in (2, 0, True, 1.0):
            tenants = [dict(payload["tenants"][0], clients=clients),
                       payload["tenants"][1]]
            with pytest.raises(WorkloadError, match="clients"):
                TenantMix.from_dict(dict(payload, tenants=tenants))


class TestEstimatorEquivalence:
    @given(window=st.integers(1, 64),
           universe=st.integers(1, 32),
           n=st.integers(1, 400),
           seed=st.integers(0, 10**6))
    @settings(max_examples=32, deadline=None)
    def test_sketch_matches_naive_scan(self, window, universe, n, seed):
        rng = random.Random(seed)
        fast = LocalityEstimator(window)
        naive = NaiveLocalityEstimator(window)
        for _ in range(n):
            fp = rng.randrange(universe).to_bytes(4, "big")
            fast.observe(fp)
            naive.observe(fp)
            assert fast.estimate == naive.estimate
            assert fast.hits == naive.hits
        assert fast.observed == naive.observed == n

    def test_estimator_ranks_streams_by_locality_dial(self):
        """Higher locality dial -> higher estimate, matching oracle."""
        estimates = []
        for locality in (0.0, 0.5, 0.95):
            stream = VdbenchStream(dedup_ratio=3.0, seed=31,
                                   locality=locality, working_set=32)
            estimator = LocalityEstimator(window=256)
            for chunk in stream.chunks(2000):
                estimator.observe(chunk.fingerprint)
            estimates.append(estimator.estimate)
        assert estimates[0] < estimates[1] < estimates[2]


class TestAdmissionAndRecovery:
    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _run(policy: str):
        """One full-size scenario run per policy (shared by the tests
        below; the run is deterministic and the report is read-only)."""
        config = PipelineConfig(tenancy_policy=policy,
                                tenancy_cache_entries=SCENARIO_CACHE)
        return run_tenant_mix(SCENARIO, IntegrationMode.CPU_ONLY,
                              SCENARIO_CHUNKS, base_config=config)

    def test_prioritized_beats_shared_lru_and_recovers(self):
        shared = self._run("shared_lru")
        prioritized = self._run("prioritized")
        assert prioritized.inline_hit_rate > shared.inline_hit_rate
        assert prioritized.recovery_fraction >= 0.95
        # The cold tenant is inline-skipped, the hot one never is.
        by_name = {t.name: t for t in prioritized.tenants}
        assert by_name["cold"].skips > 0
        assert by_name["hot"].skips == 0
        assert by_name["hot"].inline_hit_rate > \
            by_name["cold"].inline_hit_rate

    def test_compaction_recovers_skipped_duplicates(self):
        report = self._run("prioritized")
        compaction = report.compaction
        assert compaction["pending"] == 0
        assert compaction["epochs"] > 0
        assert compaction["reclaimed_bytes"] > 0
        # Every chunk either deduped inline or stored; compaction then
        # recovered enough shadows to close the gap to the oracle.
        assert report.effective_dedup_ratio == pytest.approx(
            report.oracle_dedup_ratio, rel=0.05)
        assert report.effective_dedup_ratio > \
            report.inline_dedup_ratio

    def test_per_tenant_slo_histograms_populated(self):
        report = self._run("prioritized")
        for tenant in report.tenants:
            assert tenant.chunks > 0
            assert tenant.latency["p99"] > 0.0
            assert tenant.latency["p50"] <= tenant.latency["p99"]

    @pytest.mark.parametrize("mode", list(IntegrationMode))
    def test_policies_run_in_every_mode(self, mode):
        config = PipelineConfig(tenancy_policy="prioritized",
                                tenancy_cache_entries=SCENARIO_CACHE)
        report = run_tenant_mix(SCENARIO, mode, 1024,
                                base_config=config)
        assert report.pipeline.chunks == 1024
        assert report.recovery_fraction >= 0.95
