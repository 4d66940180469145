"""Cache simulator tests."""

import pytest

from repro.errors import ConfigurationError
from repro.gpu import FragmentCache


class TestFragmentCache:
    def test_miss_then_hit(self):
        c = FragmentCache(1024)
        assert c.access("a", 100) == 100
        assert c.access("a", 100) == 0
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_lru_eviction_order(self):
        c = FragmentCache(300)
        c.access("a", 100)
        c.access("b", 100)
        c.access("c", 100)
        c.access("a", 100)  # refresh a; b is now LRU
        assert c.access("d", 100) == 100  # evicts b
        assert c.access("a", 100) == 0
        assert c.access("b", 100) == 100  # b was evicted

    def test_oversized_block_not_retained(self):
        c = FragmentCache(100)
        assert c.access("big", 500) == 500
        assert c.occupied_bytes == 0
        assert c.access("big", 500) == 500  # still a miss

    def test_capacity_accounting(self):
        c = FragmentCache(250)
        c.access("a", 100)
        c.access("b", 100)
        assert c.occupied_bytes == 200
        c.access("c", 100)  # evicts a
        assert c.occupied_bytes == 200

    def test_flush(self):
        c = FragmentCache(1024)
        c.access("a", 10)
        c.flush()
        assert c.access("a", 10) == 10

    def test_stats_totals(self):
        c = FragmentCache(1024)
        c.access("a", 100)
        c.access("a", 100)
        c.access("b", 50)
        assert c.stats.accesses == 3
        assert c.stats.hit_rate == pytest.approx(1 / 3)
        assert c.stats.total_bytes == 250
        assert c.stats.hit_bytes == 100 and c.stats.miss_bytes == 150

    def test_zero_size_access_free(self):
        c = FragmentCache(16)
        assert c.access("x", 0) == 0
        assert c.stats.accesses == 0

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            FragmentCache(0)
