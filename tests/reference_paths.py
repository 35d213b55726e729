"""Reference paths and oracles outside the codecs.

Like ``reference_codecs.py``: the slow, obviously-correct way to
compute something production computes fast, kept as an executable
specification for the equivalence suites.  Nothing under ``src/``
imports this.

* :class:`NaiveLocalityEstimator` — the O(window) scan the tenancy
  plane's ring sketch must match float-for-float
  (``test_tenancy_equivalence``);
* :func:`bin_ids_per_chunk` / :func:`route_per_chunk` — the per-chunk
  loops the cluster's mask router replaced
  (``test_cluster_equivalence``);
* :func:`report_digest` / :func:`report_digests` — the canonical
  report sha256 the pinned ``GOLDEN_REPORT_SHA256`` table is compared
  against (``test_pipeline_identity``, ``test_goldens``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from repro.chunkbatch import ChunkBatch
from repro.cluster import RoutedWindow, ShardMap
from repro.core.calibration import run_mode
from repro.core.modes import IntegrationMode
from repro.errors import ConfigError


class NaiveLocalityEstimator:
    """Reference estimator: linear scan of the last ``window`` entries.

    Observably identical to :class:`LocalityEstimator` (same hits, same
    EWMA arithmetic); per-observation cost is O(window).
    """

    __slots__ = ("window", "observed", "hits", "_alpha", "_estimate",
                 "_recent")

    def __init__(self, window: int):
        if window < 1:
            raise ConfigError(f"invalid locality window {window}")
        self.window = window
        self.observed = 0
        self.hits = 0
        self._alpha = 2.0 / (window + 1.0)
        self._estimate = 0.0
        self._recent: list[bytes] = []

    @property
    def estimate(self) -> float:
        """Current EWMA duplicate-locality estimate in [0, 1]."""
        return self._estimate

    def observe(self, fingerprint: bytes) -> bool:
        """Record one fingerprint; True when it hit the window."""
        recent = self._recent
        hit = False
        for entry in recent:
            if entry == fingerprint:
                hit = True
                break
        if len(recent) >= self.window:
            recent.pop(0)
        recent.append(fingerprint)
        self.observed += 1
        if hit:
            self.hits += 1
            self._estimate += self._alpha * (1.0 - self._estimate)
        else:
            self._estimate -= self._alpha * self._estimate
        return hit


def bin_ids_per_chunk(fingerprints: list[bytes],
                      prefix_bytes: int) -> list[int]:
    """The per-chunk bin fold ``ClusterRouter.bin_ids`` replaced."""
    return [int.from_bytes(fp[:prefix_bytes], "big")
            for fp in fingerprints]


def route_per_chunk(batch: ChunkBatch,
                    shard_map: ShardMap) -> list[RoutedWindow]:
    """The per-chunk reference router ``ClusterRouter.split``
    replaced: one python loop over the window, appending each chunk's
    columns to its shard's lists."""
    columns: dict[int, list[list]] = {}
    for index, fingerprint in enumerate(batch.fingerprints):
        bin_id = int.from_bytes(
            fingerprint[:shard_map.prefix_bytes], "big")
        shard = shard_map.shard_of(bin_id)
        rows = columns.setdefault(shard, [[], [], [], [], []])
        rows[0].append(int(batch.offsets[index]))
        rows[1].append(int(batch.sizes[index]))
        rows[2].append(batch.payloads[index]
                       if batch.payloads is not None else None)
        rows[3].append(fingerprint)
        rows[4].append(float(batch.comp_ratios[index]))
    windows = []
    for shard in sorted(columns):
        rows = columns[shard]
        windows.append(RoutedWindow(
            shard=shard,
            offsets=np.asarray(rows[0], dtype=np.int64),
            sizes=np.asarray(rows[1], dtype=np.int64),
            payloads=rows[2],
            fingerprints=rows[3],
            comp_ratios=np.asarray(rows[4], dtype=np.float64)))
    return windows


def report_digest(report) -> str:
    """sha256 of the canonical (sorted-key) JSON of one pipeline report."""
    canonical = json.dumps(dataclasses.asdict(report), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def report_digests(chunks: int) -> dict[str, str]:
    """:func:`report_digest` of every mode's ``run_mode`` report."""
    return {mode.value: report_digest(run_mode(mode, chunks))
            for mode in IntegrationMode.all_modes()}
