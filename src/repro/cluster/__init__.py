"""Simulated cluster sharding of the inline reduction engine.

The paper parallelizes reduction *within* one node; this package adds
the scale axis it could not model — N reduction nodes partitioning one
fingerprint space by bin prefix (:mod:`repro.cluster.shard_map`),
window routing with numpy masks (:mod:`repro.cluster.router`), modeled
cross-node traffic (:mod:`repro.cluster.netlink`), per-shard batteries
(:mod:`repro.cluster.shardwork`) run through :func:`repro.host.spread`,
and a deterministic merged report (:mod:`repro.cluster.engine`).  See
DESIGN.md §14.

Cross-shard access discipline: outside this package, nothing may reach
a shard's private index or worker state directly — all cross-shard
traffic goes through the router and the NetLink.
"""

from repro.cluster.engine import (
    ClusterConfig,
    ClusterEngine,
    ClusterResult,
)
from repro.cluster.netlink import NetLink, NetReport
from repro.cluster.router import ClusterRouter, RoutedWindow
from repro.cluster.shard_map import (
    ASSIGNMENTS,
    BinMove,
    RebalanceResult,
    ShardMap,
)

__all__ = [
    "ASSIGNMENTS",
    "BinMove",
    "ClusterConfig",
    "ClusterEngine",
    "ClusterResult",
    "ClusterRouter",
    "NetLink",
    "NetReport",
    "RebalanceResult",
    "RoutedWindow",
    "ShardMap",
]
