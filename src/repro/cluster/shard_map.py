"""Fingerprint-prefix shard map for the simulated reduction cluster.

SEDD-style hash-space partitioning: the dedup bin space (the
``256**prefix_bytes`` bins :func:`repro.dedup.index_base.decompose`
derives) is divided over N nodes by a total bin→shard table.  Because a
fingerprint's bin is a pure function of its first ``prefix_bytes``
bytes, two copies of the same content always route to the same shard —
per-bin dedup state is preserved exactly under any partitioning, which
is what makes the merged N-shard report equal the 1-node oracle
(DESIGN.md §14).

Two assignments are built in:

``range``
    Contiguous bin blocks (SEDD's hash-range split) — cache-friendly,
    but a workload concentrated in one prefix region lands on one node.
``balanced``
    Greedy LPT over observed per-bin loads: heaviest bin first onto the
    least-loaded shard, deterministic tie-breaks (lowest shard id, then
    lowest bin id).

:meth:`ShardMap.rebalance` is the between-epochs skew repair: given
observed per-bin loads it greedily moves the largest bin that strictly
shrinks the fullest→emptiest spread, and reports the move list so the
caller can charge the migration bytes through the NetLink.  The table
stays a total function throughout — every bin resides on exactly one
shard at all times.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigError

__all__ = ["ASSIGNMENTS", "BinMove", "RebalanceResult", "ShardMap"]

#: Registered assignment policies (CLI / config surface).
ASSIGNMENTS = ("range", "balanced")


class BinMove(NamedTuple):
    """One bin migration decided by :meth:`ShardMap.rebalance`."""

    bin_id: int
    src: int
    dst: int
    load: int


class RebalanceResult(NamedTuple):
    """Outcome of one rebalance pass."""

    moves: tuple[BinMove, ...]
    moved_bins: int
    #: Total load (bytes, in the router's accounting) that migrated.
    moved_load: int
    imbalance_before: float
    imbalance_after: float


def _imbalance(shard_loads: np.ndarray) -> float:
    """Max-over-mean shard load (1.0 = perfectly balanced)."""
    total = int(shard_loads.sum())
    if total == 0:
        return 1.0
    mean = total / len(shard_loads)
    return float(shard_loads.max()) / mean


class ShardMap:
    """Total bin→shard mapping over ``nodes`` reduction nodes."""

    __slots__ = ("nodes", "prefix_bytes", "n_bins", "assignment", "table")

    def __init__(self, nodes: int, prefix_bytes: int = 2,
                 assignment: str = "range",
                 loads: Optional[Union[Sequence[int], np.ndarray]] = None):
        if nodes < 1:
            raise ConfigError(f"need at least one node, got {nodes}")
        if prefix_bytes not in (1, 2, 3):
            raise ConfigError(
                f"unsupported shard prefix width {prefix_bytes}")
        if assignment not in ASSIGNMENTS:
            raise ConfigError(
                f"unknown shard assignment {assignment!r}; "
                f"pick one of {ASSIGNMENTS}")
        self.nodes = int(nodes)
        self.prefix_bytes = int(prefix_bytes)
        self.n_bins = 256 ** self.prefix_bytes
        if self.nodes > self.n_bins:
            raise ConfigError(
                f"{nodes} nodes exceed the {self.n_bins}-bin space")
        self.assignment = assignment
        if assignment == "range":
            bins = np.arange(self.n_bins, dtype=np.int64)
            self.table = (bins * self.nodes) // self.n_bins
        else:
            self.table = self._balanced(self._check_loads(loads))

    # -- assignment ----------------------------------------------------------

    def _check_loads(self, loads) -> np.ndarray:
        if loads is None:
            return np.ones(self.n_bins, dtype=np.int64)
        arr = np.asarray(loads, dtype=np.int64)
        if arr.shape != (self.n_bins,):
            raise ConfigError(
                f"per-bin loads must have shape ({self.n_bins},), "
                f"got {arr.shape}")
        if arr.size and int(arr.min()) < 0:
            raise ConfigError("per-bin loads must be non-negative")
        return arr

    def _balanced(self, loads: np.ndarray) -> np.ndarray:
        # LPT greedy: heaviest bin first onto the least-loaded shard.
        # The heap keys on (total, shard id) and the bin order breaks
        # load ties by bin id, so the table is deterministic.
        order = np.lexsort((np.arange(self.n_bins), -loads))
        heap = [(0, shard) for shard in range(self.nodes)]
        table = np.empty(self.n_bins, dtype=np.int64)
        load_list = loads.tolist()
        for bin_id in order.tolist():
            total, shard = heapq.heappop(heap)
            table[bin_id] = shard
            heapq.heappush(heap, (total + load_list[bin_id], shard))
        return table

    # -- queries -------------------------------------------------------------

    def counts(self) -> list[int]:
        """Bins per shard."""
        return np.bincount(self.table, minlength=self.nodes).tolist()

    def shard_loads(self, loads) -> np.ndarray:
        """Per-shard totals of the given per-bin loads."""
        arr = self._check_loads(loads).astype(np.float64)
        totals = np.bincount(self.table, weights=arr,
                             minlength=self.nodes)
        return totals.astype(np.int64)

    def imbalance(self, loads) -> float:
        """Max-over-mean shard load under the current table."""
        return _imbalance(self.shard_loads(loads))

    # -- skew repair ---------------------------------------------------------

    def rebalance(self, loads,
                  max_moves: Optional[int] = None) -> RebalanceResult:
        """Greedy skew repair against observed per-bin ``loads``.

        Repeatedly moves, from the fullest shard to the emptiest, the
        largest bin whose load is strictly under half the spread — the
        condition that guarantees each move shrinks the sum of squared
        shard loads, so the pass terminates.  The table is updated in
        place and remains total (residency exactly once); the move list
        lets the caller charge migration traffic through the NetLink.
        """
        arr = self._check_loads(loads)
        shard_loads = self.shard_loads(arr)
        before = _imbalance(shard_loads)
        budget = self.n_bins if max_moves is None else int(max_moves)
        moves: list[BinMove] = []
        while len(moves) < budget:
            src = int(shard_loads.argmax())
            dst = int(shard_loads.argmin())
            gap = int(shard_loads[src]) - int(shard_loads[dst])
            if gap <= 0:
                break
            src_bins = np.flatnonzero(self.table == src)
            bin_loads = arr[src_bins]
            movable = src_bins[(bin_loads * 2 < gap) & (bin_loads > 0)]
            if movable.size == 0:
                break
            # argmax returns the first maximum — lowest bin id on ties.
            bin_id = int(movable[arr[movable].argmax()])
            load = int(arr[bin_id])
            self.table[bin_id] = dst
            shard_loads[src] -= load
            shard_loads[dst] += load
            moves.append(BinMove(bin_id, src, dst, load))
        return RebalanceResult(
            moves=tuple(moves),
            moved_bins=len(moves),
            moved_load=sum(move.load for move in moves),
            imbalance_before=before,
            imbalance_after=_imbalance(shard_loads))
