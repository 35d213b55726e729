"""Bounded inline fingerprint caches: shared LRU vs prioritized shares.

Under a tenancy policy the inline dedup verdict comes from a *bounded*
fingerprint cache instead of the unbounded index — the regime HPDedup
studies: at primary-storage scale only a sliver of the fingerprint
space fits in memory on the inline path, so *which* stream's entries
get residency decides the aggregate inline hit rate.

* :class:`SharedLruCache` — the conventional baseline: one LRU over
  all tenants.  A low-locality stream's useless inserts evict a
  high-locality stream's soon-to-hit entries.
* :class:`PrioritizedCache` — per-tenant partitions with residency
  quotas set from the locality estimates; an insert over budget evicts
  from the *most over-quota* partition, so cold streams cannot starve
  hot ones.

Both expose the same probe/insert surface, so the admission controller
swaps them by config string; only the prioritized cache takes the
residency shares the controller rebalances.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigError

__all__ = ["MIN_QUOTA", "PrioritizedCache", "SharedLruCache"]

#: Residency floor per tenant partition: even a zero-share tenant keeps
#: a few entries so its estimator can ever observe a comeback.
MIN_QUOTA = 4


class SharedLruCache:
    """One bounded LRU fingerprint cache shared by every tenant."""

    __slots__ = ("capacity", "_cache")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"invalid cache capacity {capacity}")
        self.capacity = capacity
        self._cache: OrderedDict[bytes, int] = OrderedDict()

    def __len__(self) -> int:
        return len(self._cache)

    def probe(self, tenant: int, fingerprint: bytes) -> bool:
        """True when ``fingerprint`` is resident (refreshes recency)."""
        cache = self._cache
        if fingerprint in cache:
            cache.move_to_end(fingerprint)
            return True
        return False

    def insert(self, tenant: int, fingerprint: bytes) -> None:
        """Install ``fingerprint``, evicting the LRU entry when full."""
        cache = self._cache
        if fingerprint in cache:
            cache.move_to_end(fingerprint)
            return
        if len(cache) >= self.capacity:
            cache.popitem(last=False)
        cache[fingerprint] = tenant


class PrioritizedCache:
    """Per-tenant LRU partitions under locality-driven quotas."""

    __slots__ = ("capacity", "_partitions", "_quotas")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"invalid cache capacity {capacity}")
        self.capacity = capacity
        self._partitions: dict[int, OrderedDict[bytes, None]] = {}
        self._quotas: dict[int, int] = {}

    def __len__(self) -> int:
        return sum(len(p) for p in self._partitions.values())

    def _partition(self, tenant: int) -> "OrderedDict[bytes, None]":
        partition = self._partitions.get(tenant)
        if partition is None:
            partition = OrderedDict()
            self._partitions[tenant] = partition
            self._quotas.setdefault(tenant, self._default_quota())
        return partition

    def _default_quota(self) -> int:
        n = max(1, len(self._partitions))
        return max(MIN_QUOTA, self.capacity // n)

    def probe(self, tenant: int, fingerprint: bytes) -> bool:
        """True when ``fingerprint`` is resident in any partition.

        Cross-tenant probes still hit (fingerprints are globally
        unique content addresses); only *residency pressure* is
        per-tenant.
        """
        own = self._partitions.get(tenant)
        if own is not None and fingerprint in own:
            own.move_to_end(fingerprint)
            return True
        for other, partition in self._partitions.items():
            if other != tenant and fingerprint in partition:
                partition.move_to_end(fingerprint)
                return True
        return False

    def insert(self, tenant: int, fingerprint: bytes) -> None:
        """Install into the tenant's partition; evict over-quota state."""
        partition = self._partition(tenant)
        if fingerprint in partition:
            partition.move_to_end(fingerprint)
            return
        partition[fingerprint] = None
        if len(self) > self.capacity:
            self._evict_one(inserting=tenant)

    def _evict_one(self, inserting: int) -> None:
        """Drop the LRU entry of the most over-quota partition.

        Overage compares strictly (``>``); ties resolve to the
        first-created partition, which keeps eviction deterministic
        (dict order is creation order).  When nobody is over quota —
        quotas can sum past capacity after a rebalance — the inserting
        tenant pays for its own insert.
        """
        victim = None
        worst = 0
        for tenant, partition in self._partitions.items():
            quota = self._quotas.get(tenant, MIN_QUOTA)
            overage = len(partition) - quota
            if overage > worst and partition:
                worst = overage
                victim = tenant
        if victim is None:
            victim = inserting
        partition = self._partitions[victim]
        if partition:
            partition.popitem(last=False)

    def set_shares(self, shares: dict[int, float]) -> None:
        """Re-derive quotas from normalized locality shares."""
        for tenant, share in shares.items():
            self._quotas[tenant] = max(
                MIN_QUOTA, int(self.capacity * share))
