"""Replacement policies for capacity-limited GPU bins.

GPU bins are fixed-size linear tables; when a flush brings more entries
than a bin has free slots, something must go.  The paper uses random
replacement ("Currently, random based replacement policy is applied") and
leaves better policies open — so the policy is pluggable here, and the
A4 ablation benchmark compares random against FIFO and LRU.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.errors import IndexError_


class ReplacementPolicy(ABC):
    """Chooses which slot of a full bin a new entry evicts."""

    __slots__ = ()

    @abstractmethod
    def choose_victim(self, bin_id: int, capacity: int) -> int:
        """Slot index in [0, capacity) to evict."""

    def on_insert(self, bin_id: int, slot: int) -> None:
        """Hook: a new entry landed in ``slot``."""

    def on_hit(self, bin_id: int, slot: int) -> None:
        """Hook: a lookup hit ``slot`` (recency signal)."""


class RandomReplacement(ReplacementPolicy):
    """The paper's default: evict a uniformly random slot."""

    __slots__ = ("_rng",)

    def __init__(self, *, seed: int):
        self._rng = random.Random(seed)

    def choose_victim(self, bin_id: int, capacity: int) -> int:
        if capacity < 1:
            raise IndexError_("empty bin has no victim")
        return self._rng.randrange(capacity)


class FifoReplacement(ReplacementPolicy):
    """Evict slots in arrival order with a per-bin rotating cursor."""

    __slots__ = ("_cursor",)

    def __init__(self) -> None:
        self._cursor: dict[int, int] = {}

    def choose_victim(self, bin_id: int, capacity: int) -> int:
        if capacity < 1:
            raise IndexError_("empty bin has no victim")
        victim = self._cursor.get(bin_id, 0) % capacity
        self._cursor[bin_id] = victim + 1
        return victim


class LruReplacement(ReplacementPolicy):
    """Evict the least recently used slot, tracking hits and inserts."""

    __slots__ = ("_clock", "_last_use")

    def __init__(self) -> None:
        self._clock = 0
        self._last_use: dict[tuple[int, int], int] = {}

    def _touch(self, bin_id: int, slot: int) -> None:
        self._clock += 1
        self._last_use[(bin_id, slot)] = self._clock

    def on_insert(self, bin_id: int, slot: int) -> None:
        self._touch(bin_id, slot)

    def on_hit(self, bin_id: int, slot: int) -> None:
        self._touch(bin_id, slot)

    def choose_victim(self, bin_id: int, capacity: int) -> int:
        if capacity < 1:
            raise IndexError_("empty bin has no victim")
        return min(range(capacity),
                   key=lambda slot: self._last_use.get((bin_id, slot), -1))
