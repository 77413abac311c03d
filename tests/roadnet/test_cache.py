"""The LRU cache and the Dijkstra engine's row LRU built on it."""

import pytest

from repro.roadnet.cache import LRUCache
from repro.roadnet.engine import ROW_CACHE_CELLS, DijkstraEngine


def test_lru_put_get():
    cache = LRUCache(2)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.get("missing") is None
    assert cache.get("missing", 42) == 42


def test_lru_eviction_order():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)  # evicts "a"
    assert "a" not in cache
    assert cache.get("b") == 2
    assert cache.get("c") == 3


def test_lru_access_refreshes_recency():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # "b" is now least recent
    cache.put("c", 3)
    assert "a" in cache
    assert "b" not in cache


def test_lru_put_refreshes_recency():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)
    cache.put("c", 3)
    assert cache.get("a") == 10
    assert "b" not in cache


def test_lru_hit_rate_counters():
    cache = LRUCache(4)
    cache.put("x", 1)
    cache.get("x")
    cache.get("y")
    assert cache.hits == 1
    assert cache.misses == 1
    assert cache.hit_rate == 0.5


def test_lru_len_and_clear():
    cache = LRUCache(4)
    cache.put("x", 1)
    cache.put("y", 2)
    assert len(cache) == 2
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 0 and cache.misses == 0


def test_lru_invalid_size():
    with pytest.raises(ValueError):
        LRUCache(0)


def test_lru_repr():
    assert "LRUCache" in repr(LRUCache(3))


def test_row_cache_lru_eviction_and_stats(small_city):
    engine = DijkstraEngine(small_city, row_cache_size=2)
    engine.distance(0, 5)
    engine.distance(1, 5)
    engine.distance(0, 7)  # hit: refreshes row 0
    engine.distance(2, 5)  # evicts row 1
    assert 0 in engine.rows and 2 in engine.rows and 1 not in engine.rows
    stats = engine.stats()
    assert stats["row_entries"] == 2
    assert (stats["row_hits"], stats["row_misses"]) == (1, 3)
    assert stats["row_hit_rate"] == 0.25


def test_row_cache_cell_budget_bounds_memory(small_city):
    # Rows are whole: the LRU holds at most ROW_CACHE_CELLS distances.
    engine = DijkstraEngine(small_city, row_cache_size=10**9)
    assert engine.rows.maxsize == ROW_CACHE_CELLS // small_city.num_vertices
    assert DijkstraEngine(small_city, row_cache_size=3).rows.maxsize == 3
