"""The N-shard cluster reduction engine with a deterministic merge.

The engine plays the ingest node: it draws windows from a seeded
:class:`~repro.workload.vdbench.VdbenchStream`, fingerprints them when
running in payload mode (fingerprinting happens *before* routing — the
bin prefix is the routing key), splits each window across shards with
the mask-based router, charges the dispatch bytes to the NetLink, and
hands the sub-windows to the chosen executor.  At end of stream it
collects the per-shard reports in fixed shard-id order, charges the
flush (destage) traffic from those totals — again in shard order —
and folds everything into one merged report.

The merged report is built only from (a) per-shard report dicts that
are identical whichever process produced them and (b) parent-side
router/NetLink accounting, folded in fixed shard order.  Its canonical
JSON serialization is therefore byte-identical across executor
choices; :meth:`ClusterResult.digest` pins that as a sha256.  The
``aggregate`` sub-report (chunk/byte/counter sums) is additionally
invariant across *node counts* — the equivalence suite checks it
against the 1-node oracle (DESIGN.md §14).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.chunkbatch import ChunkBatch
from repro.cluster.executor import EXECUTORS, make_executor
from repro.cluster.netlink import NetLink, NetLinkSpec, NetReport
from repro.cluster.router import ClusterRouter
from repro.cluster.shard_map import ASSIGNMENTS, RebalanceResult, ShardMap
from repro.cluster.shardwork import ShardSpec
from repro.dedup.hashing import fingerprint_window
from repro.errors import ConfigError
from repro.obs.stages import (
    DEDUP_COUNTER_KEYS,
    STAGE_NET_DISPATCH,
    STAGE_NET_FLUSH,
    STAGE_NET_REBALANCE,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.workload.vdbench import VdbenchStream

__all__ = ["ClusterConfig", "ClusterEngine", "ClusterResult",
           "DISPATCH_DESCRIPTOR_BYTES"]

#: Routing metadata per dispatched chunk: 20-byte fingerprint plus the
#: offset/size/ratio descriptor triple (3 × 8 bytes).
DISPATCH_DESCRIPTOR_BYTES = 44

#: Per-entry migration cost of a rebalance move (fingerprint plus bin
#: bookkeeping), charged on top of the moved payload bytes.
REBALANCE_ENTRY_BYTES = 48


@dataclass(frozen=True)
class ClusterConfig:
    """One cluster run: workload, sharding, and executor choice."""

    nodes: int = 4
    prefix_bytes: int = 2
    assignment: str = "range"
    executor: str = "serial"
    chunks: int = 4096
    window: int = 64
    seed: int = 1234
    dedup_ratio: float = 2.0
    comp_ratio: float = 2.0
    chunk_size: int = 4096
    locality: float = 0.5
    payload: bool = False
    bin_buffer_capacity: int = 64
    netlink: NetLinkSpec = NetLinkSpec()

    def __post_init__(self):
        if self.chunks < 1:
            raise ConfigError("need at least one chunk")
        if self.window < 1:
            raise ConfigError(f"invalid window size {self.window}")
        if self.executor not in EXECUTORS:
            raise ConfigError(
                f"unknown executor {self.executor!r}; "
                f"pick one of {EXECUTORS}")
        if self.assignment not in ASSIGNMENTS:
            raise ConfigError(
                f"unknown shard assignment {self.assignment!r}")

    def shard_spec(self) -> ShardSpec:
        return ShardSpec(prefix_bytes=self.prefix_bytes,
                         bin_buffer_capacity=self.bin_buffer_capacity)


class ClusterResult(NamedTuple):
    """Merged cluster report plus its provenance."""

    merged: dict
    shard_reports: list
    net: NetReport

    def digest(self) -> str:
        """sha256 of the canonical merged-report JSON."""
        return hashlib.sha256(self.to_json().encode("ascii")).hexdigest()

    def to_json(self) -> str:
        """Canonical (sorted-key, compact) merged-report serialization."""
        return json.dumps(self.merged, sort_keys=True,
                          separators=(",", ":"))


class ClusterEngine:
    """Ingest-side orchestrator over N per-shard reduction batteries."""

    def __init__(self, config: ClusterConfig,
                 shard_map: Optional[ShardMap] = None,
                 tracer: Tracer = NULL_TRACER):
        self.config = config
        if shard_map is None:
            shard_map = ShardMap(config.nodes, config.prefix_bytes,
                                 config.assignment)
        elif (shard_map.nodes != config.nodes
              or shard_map.prefix_bytes != config.prefix_bytes):
            raise ConfigError("shard map does not match the config")
        self.shard_map = shard_map
        self.router = ClusterRouter(shard_map)
        self.netlink = NetLink(config.netlink, tracer=tracer)

    # -- the run -------------------------------------------------------------

    def _stream(self) -> VdbenchStream:
        cfg = self.config
        return VdbenchStream(dedup_ratio=cfg.dedup_ratio,
                             comp_ratio=cfg.comp_ratio,
                             chunk_size=cfg.chunk_size,
                             seed=cfg.seed,
                             payload=cfg.payload,
                             locality=cfg.locality)

    def run(self) -> ClusterResult:
        cfg = self.config
        executor = make_executor(cfg.executor, cfg.nodes,
                                 cfg.shard_spec())
        stream = self._stream()
        try:
            remaining = cfg.chunks
            while remaining > 0:
                batch = stream.next_batch(min(cfg.window, remaining))
                remaining -= len(batch)
                batch = self._fingerprinted(batch)
                for routed in self.router.split(batch):
                    self.netlink.charge(
                        STAGE_NET_DISPATCH,
                        len(routed) * DISPATCH_DESCRIPTOR_BYTES
                        + routed.payload_bytes())
                    executor.submit(routed)
            shard_reports = executor.finish()
        finally:
            executor.close()
        # Flush traffic is charged at end of run from the per-shard
        # destage totals, in fixed shard order: the charge sequence —
        # and therefore the NetReport — never depends on executor
        # scheduling.
        for report in shard_reports:
            destage = report["destage"]
            if destage["batches"]:
                self.netlink.charge(STAGE_NET_FLUSH,
                                    destage["payload_bytes"],
                                    messages=destage["batches"])
        net = self.netlink.finish()
        merged = self._merge(shard_reports, net)
        return ClusterResult(merged=merged, shard_reports=shard_reports,
                             net=net)

    def _fingerprinted(self, batch: ChunkBatch) -> ChunkBatch:
        """Fingerprint a payload-mode window before routing.

        Descriptor-mode windows already carry synthetic fingerprints;
        payload windows are hashed on the ingest node (the bin prefix
        *is* the routing key) through the shared batched hashing path.
        """
        if not self.config.payload:
            return batch
        chunks = batch.materialize()
        fingerprint_window(chunks)
        return ChunkBatch(batch.offsets, batch.sizes, batch.payloads,
                          [chunk.fingerprint for chunk in chunks],
                          batch.comp_ratios, validate=False)

    # -- skew repair ---------------------------------------------------------

    def plan_rebalance(self) -> RebalanceResult:
        """Between-epochs rebalance from this run's observed loads.

        Updates the shard map in place (a subsequent engine built on
        the same map routes with the repaired table) and charges the
        migration traffic — moved payload bytes plus per-entry index
        bookkeeping — to the NetLink.
        """
        result = self.shard_map.rebalance(self.router.bin_loads())
        if result.moved_bins:
            self.netlink.charge(
                STAGE_NET_REBALANCE,
                result.moved_load
                + result.moved_bins * REBALANCE_ENTRY_BYTES,
                messages=result.moved_bins)
        return result

    # -- deterministic merge -------------------------------------------------

    def _merge(self, shard_reports: list, net: NetReport) -> dict:
        cfg = self.config
        counters = {key: 0 for key in DEDUP_COUNTER_KEYS}
        for report in shard_reports:
            for key in DEDUP_COUNTER_KEYS:
                counters[key] += report["counters"][key]

        def total(*path: str) -> int:
            out = 0
            for report in shard_reports:
                value = report
                for name in path:
                    value = value[name]
                out += value
            return out

        # Everything under "aggregate" is invariant across node counts
        # (per-bin state is preserved exactly under sharding); the
        # "cluster" section is topology-specific but still identical
        # across executor choices.
        return {
            "aggregate": {
                "chunks": total("chunks"),
                "logical_bytes": total("logical_bytes"),
                "stored_bytes": total("stored_bytes"),
                "unique_chunks": total("unique_chunks"),
                "counters": counters,
                "compressed": {
                    "chunks": total("compressed", "chunks"),
                    "bytes_in": total("compressed", "bytes_in"),
                    "bytes_out": total("compressed", "bytes_out"),
                },
                "destage": {
                    "batches": total("destage", "batches"),
                    "chunks": total("destage", "chunks"),
                    "payload_bytes": total("destage", "payload_bytes"),
                },
            },
            "cluster": {
                "nodes": cfg.nodes,
                "prefix_bytes": cfg.prefix_bytes,
                "assignment": cfg.assignment,
                "seed": cfg.seed,
                "payload": cfg.payload,
                "bins_per_shard": self.shard_map.counts(),
                "routing": self.router.skew(),
                "net": net.to_dict(),
                "per_shard": [
                    {"shard": report["shard"],
                     "chunks": report["chunks"],
                     "unique_chunks": report["unique_chunks"],
                     "stored_bytes": report["stored_bytes"]}
                    for report in shard_reports
                ],
            },
        }
