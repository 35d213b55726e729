"""Mask-based window routing from the ingest node to the shards.

The router is the only component that turns a :class:`ChunkBatch`
window into per-shard work, and it does so with numpy masks over the
whole window — never a per-chunk Python loop (REP504 patrols this
module).  Bin ids are derived for the entire window at once by folding
the first ``prefix_bytes`` columns of the stacked fingerprint bytes —
the same big-endian ``bin_id`` :func:`repro.dedup.index_base.decompose`
produces per fingerprint (this module is the audited vectorized
counterpart of that single decomposition site).

Routing is order-preserving within a window: each shard's sub-window
keeps the chunks in stream order, so per-bin processing order — and
therefore every dedup verdict — is independent of the node count
(DESIGN.md §14).  The router also keeps the per-shard and per-bin load
accounting the skew report and :meth:`ShardMap.rebalance` consume.
"""

from __future__ import annotations

import numpy as np

from repro.chunkbatch import ChunkBatch
from repro.cluster.shard_map import ShardMap
from repro.errors import ConfigError
from repro.types import Chunk, FINGERPRINT_BYTES

__all__ = ["ClusterRouter", "RoutedWindow"]


class RoutedWindow:
    """One shard's slice of a routed window (pickle-friendly columns)."""

    __slots__ = ("shard", "offsets", "sizes", "payloads", "fingerprints",
                 "comp_ratios")

    def __init__(self, shard: int, offsets: np.ndarray, sizes: np.ndarray,
                 payloads: list, fingerprints: list, comp_ratios: list):
        self.shard = shard
        self.offsets = offsets
        self.sizes = sizes
        self.payloads = payloads
        self.fingerprints = fingerprints
        self.comp_ratios = comp_ratios

    def __len__(self) -> int:
        return len(self.sizes)

    def payload_bytes(self) -> int:
        """Bytes of payload travelling with this sub-window."""
        if not self.payloads or self.payloads[0] is None:
            return 0
        return int(self.sizes.sum())

    def chunks(self) -> list[Chunk]:
        """Materialized chunks, in preserved stream order."""
        return ChunkBatch(self.offsets, self.sizes, self.payloads,
                          self.fingerprints,
                          self.comp_ratios).materialize()

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)


class ClusterRouter:
    """Splits :class:`ChunkBatch` windows across shards by bin prefix."""

    __slots__ = ("shard_map", "windows", "routed_chunks", "routed_bytes",
                 "_bin_bytes")

    def __init__(self, shard_map: ShardMap):
        self.shard_map = shard_map
        self.windows = 0
        self.routed_chunks = np.zeros(shard_map.nodes, dtype=np.int64)
        self.routed_bytes = np.zeros(shard_map.nodes, dtype=np.int64)
        self._bin_bytes = np.zeros(shard_map.n_bins, dtype=np.float64)

    # -- vectorized bin derivation ------------------------------------------

    def bin_ids(self, fingerprints) -> np.ndarray:
        """Bin ids for a full fingerprint column, one numpy pass.

        Equals ``decompose(fp, prefix_bytes).bin_id`` element-wise: the
        big-endian fold of each fingerprint's first ``prefix_bytes``
        bytes.
        """
        n = len(fingerprints)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        try:
            stacked = b"".join(fingerprints)
        except TypeError:
            raise ConfigError(
                "routing needs a fully populated fingerprint column "
                "(payload-mode windows must be fingerprinted first)")
        if len(stacked) != n * FINGERPRINT_BYTES:
            raise ConfigError(
                f"fingerprints must be {FINGERPRINT_BYTES} bytes each")
        matrix = np.frombuffer(stacked, dtype=np.uint8)
        matrix = matrix.reshape(n, FINGERPRINT_BYTES)
        bins = matrix[:, 0].astype(np.int64)
        for column in range(1, self.shard_map.prefix_bytes):
            bins = (bins << 8) | matrix[:, column]
        return bins

    # -- window splitting ----------------------------------------------------

    def split(self, batch: ChunkBatch) -> list[RoutedWindow]:
        """Per-shard sub-windows of ``batch``, in ascending shard order.

        Empty shards are skipped; within each sub-window chunk order is
        the source window order.
        """
        bins = self.bin_ids(batch.fingerprints)
        shard_ids = self.shard_map.table[bins]
        sizes = batch.sizes
        self.windows += 1
        self._bin_bytes += np.bincount(
            bins, weights=sizes.astype(np.float64),
            minlength=self.shard_map.n_bins)
        n = len(batch)
        payload_col = np.empty(n, dtype=object)
        payload_col[:] = batch.payloads
        fp_col = np.empty(n, dtype=object)
        fp_col[:] = batch.fingerprints
        ratio_col = np.empty(n, dtype=object)
        ratio_col[:] = batch.comp_ratios
        out: list[RoutedWindow] = []
        for shard in range(self.shard_map.nodes):
            index = np.flatnonzero(shard_ids == shard)
            if index.size == 0:
                continue
            shard_sizes = sizes[index]
            out.append(RoutedWindow(
                shard, batch.offsets[index], shard_sizes,
                payload_col[index].tolist(), fp_col[index].tolist(),
                ratio_col[index].tolist()))
            self.routed_chunks[shard] += index.size
            self.routed_bytes[shard] += int(shard_sizes.sum())
        return out

    # -- load accounting -----------------------------------------------------

    def bin_loads(self) -> np.ndarray:
        """Observed per-bin routed bytes (rebalance input)."""
        return self._bin_bytes.astype(np.int64)

    def skew(self) -> dict:
        """Routing balance summary for the merged report."""
        total = int(self.routed_chunks.sum())
        nodes = self.shard_map.nodes
        mean = total / nodes if total else 0.0
        peak = int(self.routed_chunks.max()) if total else 0
        return {
            "windows": self.windows,
            "per_shard_chunks": self.routed_chunks.tolist(),
            "per_shard_bytes": self.routed_bytes.tolist(),
            "max_over_mean": (peak / mean) if mean else 1.0,
        }
