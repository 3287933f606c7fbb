"""Bounds of the fleet router's results cache.

The router holds the fleet's only answer cache (replicas run with
``cache_size=0``), a :class:`SharedResultsCache` bounded by ``maxsize``.
Its single-flight protocol, counters, ``lookup`` and ``resolve`` are pinned
in ``tests/core/test_cache.py``.
"""

from __future__ import annotations

from repro.core.cache import SharedResultsCache


class TestBounds:
    def test_lru_evicts_oldest_at_capacity(self):
        cache = SharedResultsCache(maxsize=2)
        for index in range(3):
            key = f"k{index}"
            _, flight = cache.begin(key)
            cache.complete(key, flight, index)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        outcome, _ = cache.begin("k0")  # oldest, evicted
        assert outcome == "lead"
        assert cache.begin("k2")[0] == "hit"

    def test_zero_maxsize_disables_storage_keeps_coalescing(self):
        cache = SharedResultsCache(maxsize=0)
        outcome, flight = cache.begin("k")
        assert outcome == "lead"
        assert cache.begin("k")[0] == "join"  # coalescing still works
        cache.complete("k", flight, "v")
        assert cache.stats()["size"] == 0
        assert cache.begin("k")[0] == "lead"  # nothing was stored
