"""The N-shard cluster reduction engine with a deterministic merge.

The engine plays the ingest node: it draws windows from a seeded
:class:`~repro.workload.vdbench.VdbenchStream`, fingerprints them when
running in payload mode (fingerprinting happens *before* routing — the
bin prefix is the routing key), splits each window across shards with
the mask-based router, charges the dispatch bytes to the NetLink, and
appends each sub-window to its shard's stream.  Routing draws no
randomness, so the whole stream is routed before any shard runs; the
shards then run through :func:`repro.host.spread`, which returns their
reports in shard-id order whichever process computed them.  The flush
(destage) traffic is charged from those reports — again in shard
order — and everything folds into one merged report.

The merged report is built only from (a) per-shard report dicts that
are identical whichever process produced them and (b) parent-side
router/NetLink accounting, folded in fixed shard order.  Its canonical
JSON serialization is therefore byte-identical on one usable CPU or
many; :meth:`ClusterResult.digest` pins that as a sha256.  The
``aggregate`` sub-report (chunk/byte/counter sums) is additionally
invariant across *node counts* — the equivalence suite checks it
against the 1-node oracle (DESIGN.md §14).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional

from repro import host
from repro.chunkbatch import ChunkBatch
from repro.cluster.netlink import NetLink, NetReport
from repro.cluster.router import ClusterRouter, RoutedWindow
from repro.cluster.shard_map import ASSIGNMENTS, ShardMap
from repro.cluster.shardwork import run_shards
from repro.dedup.hashing import fingerprint_window
from repro.errors import ConfigError
from repro.obs.stages import (
    DEDUP_COUNTER_KEYS,
    STAGE_NET_DISPATCH,
    STAGE_NET_FLUSH,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.workload.vdbench import VdbenchStream

__all__ = ["ClusterConfig", "ClusterEngine", "ClusterResult",
           "DISPATCH_DESCRIPTOR_BYTES"]

#: Routing metadata per dispatched chunk: 20-byte fingerprint plus the
#: offset/size/ratio descriptor triple (3 × 8 bytes).
DISPATCH_DESCRIPTOR_BYTES = 44


@dataclass(frozen=True)
class ClusterConfig:
    """One cluster run: workload and sharding."""

    nodes: int = 4
    prefix_bytes: int = 2
    assignment: str = "range"
    chunks: int = 4096
    window: int = 64
    seed: int = 1234
    dedup_ratio: float = 2.0
    comp_ratio: float = 2.0
    chunk_size: int = 4096
    locality: float = 0.5
    payload: bool = False
    bin_buffer_capacity: int = 64

    def __post_init__(self):
        if self.chunks < 1:
            raise ConfigError("need at least one chunk")
        if self.window < 1:
            raise ConfigError(f"invalid window size {self.window}")
        if self.bin_buffer_capacity < 1:
            raise ConfigError(
                f"invalid bin buffer capacity {self.bin_buffer_capacity}")
        if self.assignment not in ASSIGNMENTS:
            raise ConfigError(
                f"unknown shard assignment {self.assignment!r}")


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
        self.netlink = NetLink(tracer=tracer)

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
        streams: list[list[RoutedWindow]] = [[] for _ in range(cfg.nodes)]
        stream = self._stream()
        remaining = cfg.chunks
        while remaining > 0:
            batch = stream.next_batch(min(cfg.window, remaining))
            remaining -= len(batch)
            for routed in self.router.split(self._fingerprinted(batch)):
                self.netlink.charge(
                    STAGE_NET_DISPATCH,
                    len(routed) * DISPATCH_DESCRIPTOR_BYTES
                    + routed.payload_bytes())
                streams[routed.shard].append(routed)
        shard_reports = host.spread(partial(run_shards, cfg),
                                    list(enumerate(streams)))
        # Flush traffic is charged at end of run from the per-shard
        # destage totals, in fixed shard order: the charge sequence —
        # and therefore the NetReport — never depends on which process
        # ran which shard.
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
                          batch.comp_ratios)

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
        # on one usable CPU or many.
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
