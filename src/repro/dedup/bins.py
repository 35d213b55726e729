"""Bin-based CPU fingerprint index (paper §3.1(1)).

The global hash table is split into ``256 ** prefix_bytes`` independent
*bins* keyed by the fingerprint's leading bytes.  Because a fingerprint
lands in exactly one bin, threads working on different bins never touch
the same structure — "multiple computing threads can check the chunks of
multiple hash tables at the same time without locking mechanism".

Two memory decisions follow the paper exactly:

* entries live in RAM only — there is no disk index, so some duplicates
  may be missed after a restart, "but that is not a big deal" for primary
  storage;
* **prefix truncation** — the bin number *is* the prefix, so each entry
  stores only the remaining ``20 - prefix_bytes`` fingerprint bytes.
  :meth:`BinTable.memory_bytes` reproduces the paper's sizing arithmetic
  (4 TB / 8 KB chunks at 32 B/entry = 16 GB; a 2-byte prefix saves 1 GB).

Each bin is a B-tree (the "bin tree"), whose height feeds the CPU probe
cost model.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from repro.dedup.btree import BTree
from repro.dedup.index_base import FingerprintView, decompose
from repro.errors import IndexError_
from repro.types import FINGERPRINT_BYTES


class BinTable:
    """Prefix-partitioned, prefix-truncated fingerprint index."""

    __slots__ = ("prefix_bytes", "min_degree", "n_bins", "_bins",
                 "_size", "lookups", "hits")

    def __init__(self, prefix_bytes: int = 2, min_degree: int = 16):
        if not 1 <= prefix_bytes <= 4:
            raise IndexError_(
                f"prefix_bytes must be in [1, 4], got {prefix_bytes}")
        self.prefix_bytes = prefix_bytes
        self.min_degree = min_degree
        self.n_bins = 256 ** prefix_bytes
        # Bins are created lazily: most of a large bin space stays empty.
        self._bins: dict[int, BTree] = {}
        self._size = 0
        # -- statistics --
        self.lookups = 0
        self.hits = 0

    # -- key handling ----------------------------------------------------------

    def _view(self, fingerprint: bytes) -> FingerprintView:
        return decompose(fingerprint, self.prefix_bytes)

    def bin_of(self, fingerprint: bytes) -> int:
        """Bin number: the integer value of the fingerprint prefix."""
        return self._view(fingerprint).bin_id

    def suffix_of(self, fingerprint: bytes) -> bytes:
        """Stored key: the fingerprint with its prefix truncated away."""
        return self._view(fingerprint).suffix

    # -- FingerprintIndex interface ---------------------------------------------

    def lookup(self, fingerprint: bytes) -> Optional[Any]:
        """Stored value for ``fingerprint``, or None."""
        return self.probe_view(self._view(fingerprint))[1]

    def insert(self, fingerprint: bytes, value: Any) -> bool:
        """Store ``value``; returns True if the fingerprint was new."""
        view = self._view(fingerprint)
        tree = self._bins.get(view.bin_id)
        if tree is None:
            tree = BTree(min_degree=self.min_degree)
            self._bins[view.bin_id] = tree
        was_new = tree.insert(view.suffix, value)
        if was_new:
            self._size += 1
        return was_new

    def install_views(self, bin_id: int,
                      staged: Sequence[tuple[bytes, Any]]) -> int:
        """Install one flushed bin's (suffix, value) run at once.

        The entries all belong to ``bin_id`` (the bin buffer flushes one
        bin at a time), so the per-entry bin dispatch happens once and
        the B-tree receives the whole run via
        :meth:`~repro.dedup.btree.BTree.insert_run`.  Returns the number
        of new keys; tree shape is byte-identical to per-entry inserts.
        """
        if not staged:
            return 0
        tree = self._bins.get(bin_id)
        if tree is None:
            tree = BTree(min_degree=self.min_degree)
            self._bins[bin_id] = tree
        installed = tree.insert_run(staged)
        self._size += installed
        return installed

    def __len__(self) -> int:
        return self._size

    def __contains__(self, fingerprint: bytes) -> bool:
        view = self._view(fingerprint)
        tree = self._bins.get(view.bin_id)
        return tree is not None and view.suffix in tree

    # -- geometry / cost hooks ---------------------------------------------------

    def bin_depth(self, fingerprint: bytes) -> int:
        """Levels a probe for ``fingerprint`` walks (>= 1)."""
        tree = self._bins.get(self._view(fingerprint).bin_id)
        return tree.height if tree is not None else 1

    def probe_view(self, view: FingerprintView) -> "tuple[int, Optional[Any]]":
        """(bin depth, stored value) in one bin dispatch.

        Equivalent to :meth:`bin_depth` followed by :meth:`lookup` —
        same statistics, same cost-model depth — for a caller that
        already holds the view.
        """
        tree = self._bins.get(view.bin_id)
        self.lookups += 1
        if tree is None:
            return 1, None
        value = tree.search(view.suffix)
        if value is not None:
            self.hits += 1
        return tree.height, value

    def occupied_bins(self) -> int:
        """Bins holding at least one entry."""
        return len(self._bins)

    def bin_sizes(self) -> Iterator[int]:
        """Entry count of every occupied bin."""
        for tree in self._bins.values():
            yield len(tree)

    def balance(self) -> float:
        """mean/max bin occupancy over occupied bins (1.0 = perfect)."""
        sizes = list(self.bin_sizes())
        if not sizes:
            return 1.0
        peak = max(sizes)
        return (sum(sizes) / len(sizes)) / peak if peak else 1.0

    # -- memory accounting ---------------------------------------------------

    def memory_bytes(self, metadata_bytes: int = 12) -> int:
        """Index RAM at ``metadata_bytes`` of non-key payload per entry.

        The paper's 32 B entry = 20 B SHA-1 + 12 B metadata; truncation
        shaves ``prefix_bytes`` off the key part of every entry.
        """
        key_bytes = FINGERPRINT_BYTES - self.prefix_bytes
        return self._size * (key_bytes + metadata_bytes)

    def memory_saved_bytes(self) -> int:
        """RAM the prefix truncation saves versus storing full hashes."""
        return self._size * self.prefix_bytes

    def hit_rate(self) -> float:
        """Fraction of lookups that found their fingerprint."""
        return self.hits / self.lookups if self.lookups else 0.0

    def items(self) -> Iterator[tuple[int, bytes, Any]]:
        """All (bin_id, suffix, value) triples, bin by bin."""
        for bin_id, tree in self._bins.items():
            for suffix, value in tree.items():
                yield bin_id, suffix, value
