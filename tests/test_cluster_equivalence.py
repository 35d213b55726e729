"""Cluster sharding equivalence: N shards must change nothing.

The cluster's contract (DESIGN.md §14) is that partitioning the bin
index over N nodes is *invisible* in the reduction outcome:

- **partition invariance** — the merged ``aggregate`` section (chunk/
  byte/counter totals, compression sums, destage totals) of an N-node
  run equals the 1-node oracle exactly, for any node count, shard
  assignment and workload mix.  Duplicates share a fingerprint, hence
  a bin, hence a shard — so every per-bin dedup decision sees the same
  history it would have seen unsharded.
- **host identity** — a run on one usable CPU and a run whose shards
  :func:`repro.host.spread` shares with helper processes produce
  byte-identical merged reports (same canonical JSON, same sha256),
  because per-shard reports are plain data folded in fixed shard order
  and all NetLink charges are issued parent-side; a shard that fails
  on a helper is recomputed by the caller.
- **residency** — the shard map covers every bin exactly once, before
  and after any greedy rebalance, and a rebalance strictly improves
  (or leaves) the imbalance it optimizes.
- **routing** — the mask-based split preserves per-shard chunk order
  and loses nothing versus a per-chunk filter.
"""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.corpus import golden_config
from tests.reference_paths import bin_ids_per_chunk, route_per_chunk
from tests.test_gpu_host import CALLER, FALLBACK_BOUND_S, helper_pids, reaped

from repro import host
from repro.chunkbatch import ChunkBatch
from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    ClusterRouter,
    ShardMap,
)
from repro.cluster import engine as cluster_engine
from repro.cluster.shardwork import run_shards
from repro.workload import VdbenchStream

#: Workload mixes that stress distinct sharding failure modes:
#: dup-heavy (per-bin dedup state), skewed (hot shards), uniform
#: (every bin in play).
CORPORA = {
    "dup_heavy": dict(dedup_ratio=4.0, locality=0.9),
    "skewed": dict(dedup_ratio=3.0, locality=0.95),
    "uniform": dict(dedup_ratio=1.0, locality=0.0),
}


def _run(nodes, corpus="dup_heavy", **overrides):
    params = dict(chunks=512, **CORPORA[corpus])
    params.update(overrides)
    return ClusterEngine(golden_config(nodes, **params)).run()


needs_a_helper = pytest.mark.skipif(
    host.usable_cpus() < 2, reason="one usable CPU: nothing is forked")


# Shard tasks patched in below; a helper tells itself apart by its pid.

def _noting_pid(config, shards):
    return [dict(report, pid=os.getpid())
            for report in run_shards(config, shards)]


def _fails_on_a_helper(config, shards):
    if os.getpid() != CALLER:
        raise RuntimeError("helper failure")
    return run_shards(config, shards)


def _fails_everywhere(config, shards):
    raise RuntimeError("shard failure")


class TestPartitionInvariance:
    @given(nodes=st.sampled_from([2, 3, 4, 8]),
           corpus=st.sampled_from(sorted(CORPORA)),
           assignment=st.sampled_from(["range", "balanced"]),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=16, deadline=None)
    def test_aggregate_matches_one_node_oracle(self, nodes, corpus,
                                               assignment, seed):
        oracle = _run(1, corpus, seed=seed)
        sharded = _run(nodes, corpus, seed=seed, assignment=assignment)
        assert sharded.merged["aggregate"] == oracle.merged["aggregate"]

    def test_no_race_duplicates_under_sharding(self):
        """Strict per-chunk index->commit sequencing within a shard
        means the in-flight race path never opens."""
        for nodes in (1, 4):
            counters = _run(nodes).merged["aggregate"]["counters"]
            assert counters["race_duplicates"] == 0

    def test_payload_mode_matches_oracle(self):
        oracle = _run(1, payload=True, chunk_size=1024)
        sharded = _run(4, payload=True, chunk_size=1024)
        assert sharded.merged["aggregate"] == oracle.merged["aggregate"]

    def test_per_shard_chunks_sum_to_corpus(self):
        result = _run(4)
        per_shard = result.merged["cluster"]["per_shard"]
        assert sum(entry["chunks"] for entry in per_shard) == 512

    @pytest.mark.parametrize("payload", (False, True),
                             ids=("descriptor", "payload"))
    @pytest.mark.parametrize("nodes", (1, 2, 4))
    def test_only_unique_chunks_are_compressed(self, nodes, payload):
        """Shards compress after the verdict: the compressor's ledger
        is the stored ledger."""
        overrides = dict(payload=True, chunk_size=1024) if payload else {}
        aggregate = _run(nodes, **overrides).merged["aggregate"]
        compressed = aggregate["compressed"]
        assert compressed["chunks"] == aggregate["unique_chunks"]
        assert compressed["bytes_out"] == aggregate["stored_bytes"]

    def test_duplicates_never_reach_the_codec(self, monkeypatch):
        """Enforced by order (index, then compress), not by a cache."""
        from repro.cluster import shardwork
        from repro.compression.parallel_cpu import CpuCompressor
        from repro.compression.quicklz import QuickLzCodec
        from repro.dedup.hashing import fingerprint_window

        class CountingCodec(QuickLzCodec):
            def __init__(self):
                self.encoded = []

            def encode(self, data):
                self.encoded.append(data)
                return super().encode(data)

        stream = VdbenchStream(dedup_ratio=4.0, locality=0.9, seed=11,
                               chunk_size=1024, payload=True)
        batch = stream.next_batch(256)
        chunks = batch.materialize()
        fingerprints = fingerprint_window(chunks)
        batch = ChunkBatch(batch.offsets, batch.sizes, batch.payloads,
                           fingerprints, batch.comp_ratios)
        (window,) = ClusterRouter(ShardMap(1)).split(batch)
        codec = CountingCodec()
        monkeypatch.setattr(shardwork, "CpuCompressor",
                            lambda: CpuCompressor(codec=codec))
        (report,) = run_shards(golden_config(1), [(0, [window])])
        unique = set(fingerprints)
        assert len(unique) < len(chunks) // 2
        assert len(codec.encoded) == len(unique)
        assert len(set(codec.encoded)) == len(unique)
        assert report["compressed"]["chunks"] == len(unique)


@needs_a_helper
class TestExecutorIdentity:
    """One usable CPU ≡ the shards shared out with helper processes."""

    @staticmethod
    def _pair(monkeypatch, nodes, corpus="dup_heavy", **overrides):
        monkeypatch.setattr(cluster_engine, "run_shards", _noting_pid)
        shared = _run(nodes, corpus, chunks=256, **overrides)
        monkeypatch.setattr(host, "usable_cpus", lambda: 1)
        alone = _run(nodes, corpus, chunks=256, **overrides)
        # A helper really ran a shard; alone, the caller ran them all.
        assert {r["pid"] for r in alone.shard_reports} == {CALLER}
        pids = {r["pid"] for r in shared.shard_reports} - {CALLER}
        assert pids and pids <= set(helper_pids())
        assert alone.to_json() == shared.to_json()
        assert alone.digest() == shared.digest()

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    @pytest.mark.parametrize("nodes", (2, 4))
    def test_one_cpu_and_two_reports_byte_identical(self, monkeypatch,
                                                    nodes, corpus):
        self._pair(monkeypatch, nodes, corpus)

    def test_payload_mode_byte_identical(self, monkeypatch):
        self._pair(monkeypatch, 4, payload=True, chunk_size=1024)


class TestShardMapResidency:
    @given(nodes=st.integers(min_value=1, max_value=16),
           assignment=st.sampled_from(["range", "balanced"]),
           prefix_bytes=st.sampled_from([1, 2]))
    @settings(max_examples=24, deadline=None)
    def test_every_bin_on_exactly_one_shard(self, nodes, assignment,
                                            prefix_bytes):
        shard_map = ShardMap(nodes, prefix_bytes=prefix_bytes,
                             assignment=assignment)
        table = shard_map.table
        assert table.shape == (shard_map.n_bins,)
        assert int(table.min()) >= 0
        assert int(table.max()) < nodes
        # The per-shard counts partition the bins.
        assert sum(shard_map.counts()) == shard_map.n_bins

    @given(seed=st.integers(min_value=0, max_value=2**16),
           nodes=st.sampled_from([2, 4, 8]))
    @settings(max_examples=16, deadline=None)
    def test_rebalance_preserves_residency_and_improves(self, seed,
                                                        nodes):
        rng = np.random.default_rng(seed)
        shard_map = ShardMap(nodes, prefix_bytes=1)
        loads = rng.integers(0, 1 << 16, size=shard_map.n_bins)
        before = shard_map.imbalance(loads)
        result = shard_map.rebalance(loads)
        table = shard_map.table
        assert table.shape == (shard_map.n_bins,)
        assert int(table.min()) >= 0 and int(table.max()) < nodes
        assert result.imbalance_after <= before + 1e-12
        # Every recorded move lands where the table says it landed.
        for move in result.moves:
            assert table[move.bin_id] == move.dst

    def test_rebalanced_map_still_partition_invariant(self):
        """Routing with a repaired table is still a partition, so the
        aggregate oracle holds after a rebalance."""
        engine = ClusterEngine(golden_config(
            4, chunks=512, **CORPORA["skewed"]))
        engine.run()
        assert engine.shard_map.rebalance(engine.router.bin_loads()).moves
        rerun = ClusterEngine(engine.config,
                              shard_map=engine.shard_map).run()
        oracle = ClusterEngine(golden_config(
            1, chunks=512, **CORPORA["skewed"])).run()
        assert rerun.merged["aggregate"] == oracle.merged["aggregate"]


class TestRouterEquivalence:
    @given(seed=st.integers(min_value=0, max_value=2**16),
           nodes=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=16, deadline=None)
    def test_mask_split_matches_per_chunk_filter(self, seed, nodes):
        stream = VdbenchStream(seed=seed)
        batch = stream.next_batch(128)
        shard_map = ShardMap(nodes)
        router = ClusterRouter(shard_map)
        assert router.bin_ids(batch.fingerprints).tolist() == \
            bin_ids_per_chunk(batch.fingerprints, shard_map.prefix_bytes)
        routed = router.split(batch)
        reference = route_per_chunk(batch, shard_map)
        assert [w.shard for w in routed] == [w.shard for w in reference]
        for fast, slow in zip(routed, reference):
            assert fast.fingerprints == slow.fingerprints
            assert np.array_equal(fast.offsets, slow.offsets)
            assert np.array_equal(fast.sizes, slow.sizes)
            assert np.array_equal(fast.comp_ratios, slow.comp_ratios)

    def test_split_preserves_window_order_within_shard(self):
        # dedup_ratio=1.0 -> all-unique fingerprints, so stream
        # position is recoverable by .index().
        stream = VdbenchStream(seed=7, dedup_ratio=1.0)
        batch = stream.next_batch(256)
        router = ClusterRouter(ShardMap(4))
        for routed in router.split(batch):
            original = [batch.fingerprints.index(fp)
                        for fp in routed.fingerprints]
            assert original == sorted(original)


class TestConfigValidation:
    def test_bin_buffer_capacity_rejected(self):
        """Before any window is routed, not inside a shard."""
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="bin buffer capacity"):
            ClusterConfig(bin_buffer_capacity=0)

    def test_mismatched_shard_map_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            ClusterEngine(golden_config(4), shard_map=ShardMap(2))


class TestWorkerFailure:
    """A shard that fails on a helper costs time, not bytes; one that
    fails everywhere raises its own error and leaves no helper behind."""

    @needs_a_helper
    def test_a_shard_failing_on_its_helper_is_recomputed(self,
                                                         monkeypatch):
        expected = _run(4, chunks=256)
        sent = helper_pids()[:3]
        monkeypatch.setattr(cluster_engine, "run_shards",
                            _fails_on_a_helper)
        began = time.perf_counter()
        assert _run(4, chunks=256).to_json() == expected.to_json()
        assert time.perf_counter() - began < FALLBACK_BOUND_S
        assert sent and all(reaped(pid) for pid in sent)

    def test_a_shard_failing_everywhere_raises_its_own_error(self,
                                                             monkeypatch):
        _run(4, chunks=256)
        sent = helper_pids()[:3]
        monkeypatch.setattr(cluster_engine, "run_shards", _fails_everywhere)
        began = time.perf_counter()
        with pytest.raises(RuntimeError, match="shard failure"):
            _run(4, chunks=256)
        assert time.perf_counter() - began < FALLBACK_BOUND_S
        assert all(reaped(pid) for pid in sent)
