"""The L2 cache simulator for DRAM-traffic measurement.

:class:`FragmentCache` is a fully-associative LRU over variable-sized
*fragments* (the ``BLK_M x BLK_K`` / ``BLK_K x BLK_N`` staging blocks GEMM
kernels actually stream), which is the granularity the L2 reuse argument
of Section 5.2 is about.  Backed by an ordered dict; capacity is enforced
in bytes.  It reports hit/miss byte counts; the cache-replay memory model
(:class:`repro.gpu.memory.CacheSimMemoryModel`) converts misses into DRAM
traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..obs.counters import inc_counter

__all__ = ["FragmentCache", "CacheStats"]


@dataclass
class CacheStats:
    """Aggregate access statistics."""

    accesses: int = 0
    hits: int = 0
    hit_bytes: int = 0
    miss_bytes: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def total_bytes(self) -> int:
        return self.hit_bytes + self.miss_bytes

    def publish(self, prefix: str) -> None:
        """Add this snapshot to the global counters registry.

        Counter names follow the ``<prefix>.hit|miss|hit_bytes|miss_bytes``
        convention of :mod:`repro.obs.counters`, so
        ``obs.hit_rate(prefix)`` yields the simulated cache hit rate.
        Callers publish once per replay (not per access), keeping the
        cache's inner loop free of registry traffic.
        """
        inc_counter(prefix + ".hit", self.hits)
        inc_counter(prefix + ".miss", self.misses)
        inc_counter(prefix + ".hit_bytes", self.hit_bytes)
        inc_counter(prefix + ".miss_bytes", self.miss_bytes)


class FragmentCache:
    """Fully-associative LRU over variable-sized keyed blocks."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ConfigurationError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._blocks: "OrderedDict[object, int]" = OrderedDict()
        self._occupied = 0
        self.stats = CacheStats()

    def access(self, key: object, size: int) -> int:
        """Touch one fragment; return bytes missed.

        A fragment larger than the whole cache always misses and is not
        retained (it would evict everything for no reuse).
        """
        if size <= 0:
            return 0
        self.stats.accesses += 1
        if key in self._blocks:
            self._blocks.move_to_end(key)
            self.stats.hits += 1
            self.stats.hit_bytes += size
            return 0
        self.stats.miss_bytes += size
        if size > self.capacity_bytes:
            return size
        while self._occupied + size > self.capacity_bytes:
            _, evicted = self._blocks.popitem(last=False)
            self._occupied -= evicted
        self._blocks[key] = size
        self._occupied += size
        return size

    @property
    def occupied_bytes(self) -> int:
        return self._occupied

    def flush(self) -> None:
        self._blocks.clear()
        self._occupied = 0
