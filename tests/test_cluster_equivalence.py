"""Cluster sharding equivalence: N shards must change nothing.

The cluster's contract (DESIGN.md §14) is that partitioning the bin
index over N nodes is *invisible* in the reduction outcome:

- **partition invariance** — the merged ``aggregate`` section (chunk/
  byte/counter totals, compression sums, destage totals) of an N-node
  run equals the 1-node oracle exactly, for any node count, shard
  assignment and workload mix.  Duplicates share a fingerprint, hence
  a bin, hence a shard — so every per-bin dedup decision sees the same
  history it would have seen unsharded.
- **executor identity** — the serial and multiprocessing executors
  produce byte-identical merged reports (same canonical JSON, same
  sha256), because per-shard reports are plain data folded in fixed
  shard order and all NetLink charges are issued parent-side.
- **residency** — the shard map covers every bin exactly once, before
  and after any greedy rebalance, and a rebalance strictly improves
  (or leaves) the imbalance it optimizes.
- **routing** — the mask-based split preserves per-shard chunk order
  and loses nothing versus a per-chunk filter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.corpus import golden_config
from tests.reference_paths import bin_ids_per_chunk, route_per_chunk

from repro.chunkbatch import ChunkBatch
from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    ClusterRouter,
    ShardMap,
)
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


class TestPartitionInvariance:
    @given(nodes=st.sampled_from([2, 3, 4, 8]),
           corpus=st.sampled_from(sorted(CORPORA)),
           assignment=st.sampled_from(["range", "interleave"]),
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

    def test_duplicates_never_reach_the_codec(self):
        """Enforced by order (index, then compress), not by a cache."""
        from repro.cluster.shardwork import ShardWorker
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
        worker = ShardWorker(0)
        worker._compressor = CpuCompressor(codec=codec)
        worker.process(window)
        unique = set(fingerprints)
        assert len(unique) < len(chunks) // 2
        assert len(codec.encoded) == len(unique)
        assert len(set(codec.encoded)) == len(unique)


class TestExecutorIdentity:
    @given(nodes=st.sampled_from([1, 2, 4]),
           corpus=st.sampled_from(sorted(CORPORA)))
    @settings(max_examples=6, deadline=None)
    def test_serial_and_mp_reports_byte_identical(self, nodes, corpus):
        serial = _run(nodes, corpus, chunks=256)
        mp = _run(nodes, corpus, chunks=256, executor="mp")
        assert serial.to_json() == mp.to_json()
        assert serial.digest() == mp.digest()

    def test_payload_mode_byte_identical(self):
        serial = _run(2, chunks=256, payload=True, chunk_size=1024)
        mp = _run(2, chunks=256, payload=True, chunk_size=1024,
                  executor="mp")
        assert serial.to_json() == mp.to_json()


class TestShardMapResidency:
    @given(nodes=st.integers(min_value=1, max_value=16),
           assignment=st.sampled_from(["range", "interleave"]),
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
        # bins_of partitions: every bin appears once across shards.
        total = sum(len(shard_map.bins_of(s)) for s in range(nodes))
        assert total == shard_map.n_bins

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
        engine = _run_engine_with_rebalance()
        rerun = ClusterEngine(engine.config,
                              shard_map=engine.shard_map).run()
        oracle = ClusterEngine(golden_config(
            1, chunks=512, **CORPORA["skewed"])).run()
        assert rerun.merged["aggregate"] == oracle.merged["aggregate"]


def _run_engine_with_rebalance():
    engine = ClusterEngine(golden_config(
        4, chunks=512, **CORPORA["skewed"]))
    engine.run()
    engine.plan_rebalance()
    return engine


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
    def test_unknown_executor_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            ClusterConfig(executor="threads")

    def test_mismatched_shard_map_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            ClusterEngine(golden_config(4), shard_map=ShardMap(2))


class TestWorkerFailure:
    """A failing shard child surfaces in the parent as a ClusterError
    naming the shard and the child's exception — not as a dead pipe."""

    def test_bad_spec_at_startup(self):
        from repro.cluster.executor import MpExecutor
        from repro.cluster.shardwork import ShardSpec
        from repro.errors import ClusterError

        executor = MpExecutor(2, ShardSpec(prefix_bytes=9))
        try:
            with pytest.raises(ClusterError) as raised:
                executor.finish()
        finally:
            executor.close()
        assert "shard " in str(raised.value)
        assert "IndexError_" in str(raised.value)
        self._assert_reaped(executor)

    def test_worker_raises_mid_stream(self):
        from types import SimpleNamespace

        from repro.cluster.executor import MpExecutor
        from repro.errors import ClusterError

        batch = VdbenchStream(seed=3).next_batch(64)
        good = ClusterRouter(ShardMap(2)).split(batch)
        executor = MpExecutor(2)
        try:
            for window in good:
                executor.submit(window)
            # Not a RoutedWindow: shard 1's ``process`` raises.
            executor.submit(SimpleNamespace(shard=1))
            executor._processes[1].join(timeout=30)
            assert not executor._processes[1].is_alive()
            with pytest.raises(ClusterError) as submit_error:
                executor.submit(good[1])
            with pytest.raises(ClusterError) as finish_error:
                executor.finish()
        finally:
            executor.close()
        assert "shard 1" in str(submit_error.value)
        assert "AttributeError" in str(submit_error.value)
        assert "shard 1" in str(finish_error.value)
        self._assert_reaped(executor)

    @pytest.mark.parametrize("name", ("serial", "mp"))
    def test_window_after_finish_is_refused(self, name):
        """A late window would be staged into bins nobody drains."""
        from repro.cluster.executor import make_executor
        from repro.errors import ClusterError

        stream = VdbenchStream(seed=3)
        router = ClusterRouter(ShardMap(1))
        executor = make_executor(name, 1)
        try:
            for window in router.split(stream.next_batch(256)):
                executor.submit(window)
            (report,) = executor.finish()
            assert report["destage"]["chunks"] == report["unique_chunks"]
            with pytest.raises(ClusterError, match="shard 0"):
                for window in router.split(stream.next_batch(256)):
                    executor.submit(window)
                executor.finish()
        finally:
            executor.close()

    @staticmethod
    def _assert_reaped(executor):
        for process in executor._processes:
            assert not process.is_alive()
            assert process.exitcode is not None
