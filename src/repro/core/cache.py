"""Host-side chunk cache for the read path.

Primary arrays keep a DRAM read cache of *decompressed* chunks in front
of the media; with reduction inline, the cache is where decompression
cost gets amortized — a hot chunk is decoded once, not per read.  LRU
over logical offsets, capacity in bytes.

The cache is functional + cheap-to-model: hits cost one hash-map probe
on the CPU; misses fall through to the SSD + decode path and then fill.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigError


class ChunkCache:
    """LRU cache of decompressed chunks, keyed by logical offset."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ConfigError(f"invalid cache capacity {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[int, int] = OrderedDict()  # offset->size
        self.used_bytes = 0
        # -- statistics --
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, offset: int) -> bool:
        """True on a hit; touches LRU order."""
        if offset in self._entries:
            self._entries.move_to_end(offset)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, offset: int, size: int) -> None:
        """Install a chunk after a miss, evicting LRU entries to fit."""
        if size > self.capacity_bytes:
            return  # larger than the whole cache: never cacheable
        if offset in self._entries:
            self.used_bytes -= self._entries.pop(offset)
        while self.used_bytes + size > self.capacity_bytes:
            _victim, victim_size = self._entries.popitem(last=False)
            self.used_bytes -= victim_size
            self.evictions += 1
        self._entries[offset] = size
        self.used_bytes += size

    def __len__(self) -> int:
        return len(self._entries)

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
