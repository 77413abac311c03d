"""The LRU cache behind the Dijkstra engine.

Section VI of the paper: "we implement two LRU caches using a single hash
table, one storing up to ten million shortest distances and the other
storing up to ten thousand shortest paths (...) Both caches are indexed
only by the starting and destination points".

Here one LRU serves both: it is keyed by the source alone and holds the
source's whole distance and predecessor rows, computed in C (see
:class:`~repro.roadnet.engine.DijkstraEngine`), so every distance and
every path from a cached source is one array read. The hash table is a
Python dict, the language-native analogue of the paper's.
"""

from __future__ import annotations

from typing import Any, Hashable


class LRUCache:
    """A minimal, instrumented LRU cache.

    Python dicts iterate in insertion order, so recency is maintained by
    re-inserting on access; eviction pops the oldest entry. ``hits`` /
    ``misses`` counters support the cache-effectiveness microbenchmarks.
    """

    __slots__ = ("maxsize", "_data", "hits", "misses")

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._data: dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency on a hit."""
        try:
            value = self._data.pop(key)
        except KeyError:
            self.misses += 1
            return default
        self._data[key] = value
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``; evicts the least recently used entry."""
        try:
            del self._data[key]
        except KeyError:
            if len(self._data) >= self.maxsize:
                del self._data[next(iter(self._data))]
        self._data[key] = value

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop all entries and reset statistics."""
        self._data.clear()
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"LRUCache(size={len(self._data)}/{self.maxsize}, "
            f"hit_rate={self.hit_rate:.3f})"
        )
