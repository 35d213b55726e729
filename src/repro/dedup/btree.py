"""In-memory B-tree: the structure behind each CPU bin ("bin tree").

The paper contrasts the GPU's *linear table* bins with the CPU's tree
bins (§3.1(2): "we organize one bin into a linear table structure rather
than a tree structure") — so the CPU side gets a real B-tree, not a dict.
The tree's height also feeds the CPU cost model: a probe charges
``bin_tree_probe_per_level`` per level walked.

Classic CLRS B-tree with minimum degree ``t``: every node holds between
``t-1`` and ``2t-1`` keys (root exempt below), split-on-the-way-down
insertion, no deletion (dedup indexes only grow during a run; whole bins
are dropped at once).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Optional

from repro.errors import IndexError_


class _Node:
    __slots__ = ("keys", "values", "children", "leaf")

    def __init__(self, leaf: bool):
        self.keys: list[bytes] = []
        self.values: list[Any] = []
        self.children: list["_Node"] = []
        self.leaf = leaf


class BTree:
    """B-tree mapping byte-string keys to arbitrary values."""

    __slots__ = ("_t", "_root", "_size", "_height")

    def __init__(self, min_degree: int = 16):
        if min_degree < 2:
            raise IndexError_(f"min degree must be >= 2, got {min_degree}")
        self._t = min_degree
        self._root = _Node(leaf=True)
        self._size = 0
        self._height = 1

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels a search walks (1 for a lone root)."""
        return self._height

    # -- search -----------------------------------------------------------

    def search(self, key: bytes) -> Optional[Any]:
        """Value stored under ``key``, or None."""
        node = self._root
        while True:
            i = self._lower_bound(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                return node.values[i]
            if node.leaf:
                return None
            node = node.children[i]

    def __contains__(self, key: bytes) -> bool:
        return self.search(key) is not None

    # C-speed binary search: identical result to the historical Python
    # loop (first index whose key is >= the probe key).
    _lower_bound = staticmethod(bisect_left)

    # -- insertion ---------------------------------------------------------

    def insert(self, key: bytes, value: Any) -> bool:
        """Insert ``key``; returns False (and updates the value) if present."""
        root = self._root
        if len(root.keys) == 2 * self._t - 1:
            new_root = _Node(leaf=False)
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self._root = new_root
            self._height += 1
        return self._insert_nonfull(self._root, key, value)

    def _split_child(self, parent: _Node, index: int) -> None:
        t = self._t
        child = parent.children[index]
        sibling = _Node(leaf=child.leaf)
        # Median key moves up; upper half moves to the new sibling.
        parent.keys.insert(index, child.keys[t - 1])
        parent.values.insert(index, child.values[t - 1])
        parent.children.insert(index + 1, sibling)
        sibling.keys = child.keys[t:]
        sibling.values = child.values[t:]
        child.keys = child.keys[:t - 1]
        child.values = child.values[:t - 1]
        if not child.leaf:
            sibling.children = child.children[t:]
            child.children = child.children[:t]

    def _insert_nonfull(self, node: _Node, key: bytes, value: Any) -> bool:
        while True:
            i = self._lower_bound(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                node.values[i] = value
                return False
            if node.leaf:
                node.keys.insert(i, key)
                node.values.insert(i, value)
                self._size += 1
                return True
            if len(node.children[i].keys) == 2 * self._t - 1:
                self._split_child(node, i)
                if node.keys[i] == key:
                    node.values[i] = value
                    return False
                if key > node.keys[i]:
                    i += 1
            node = node.children[i]

    def insert_run(self, pairs: "list[tuple[bytes, Any]]") -> int:
        """Insert a run of (key, value) pairs; returns the new-key count.

        Fast path: a *duplicate-free* run landing in a *fresh* tree
        that fits one node is installed as a single sorted leaf.  That
        is provably the shape split-on-the-way-down insertion builds —
        n <= 2t-1 unique inserts into an empty tree never split, so the
        keys accumulate sorted in the root leaf.  A run with repeated
        keys must fall back: a repeat arriving while the root is full
        splits it preemptively (split-on-the-way-down checks fullness
        before noticing the key exists), growing the tree a plain leaf
        build would not.  Every other case also falls back to per-entry
        :meth:`insert` in original order, preserving the exact
        historical split sequence (and thus the tree height the CPU
        cost model charges for).
        """
        root = self._root
        if self._size == 0 and root.leaf and not root.keys:
            run: dict[bytes, Any] = {}
            for key, value in pairs:
                run[key] = value
            if len(run) == len(pairs) and len(run) <= 2 * self._t - 1:
                ordered = sorted(run.items())
                root.keys = [key for key, _ in ordered]
                root.values = [value for _, value in ordered]
                self._size = len(ordered)
                return self._size
        before = self._size
        for key, value in pairs:
            self.insert(key, value)
        return self._size - before
