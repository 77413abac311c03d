"""LRU caches for shortest-path computations.

Section VI of the paper: "we implement two LRU caches using a single hash
table, one storing up to ten million shortest distances and the other
storing up to ten thousand shortest paths (...) Both caches are indexed
only by the starting and destination points (...) by defining the index
for two vertices s and e as ``i = id(s) * |V| + id(e)``".

:func:`combined_key` implements exactly that indexing.
:class:`ShortestPathCache` holds both caches behind one facade; the hash
table backing each LRU is a Python dict (the language-native analogue of
the paper's single hash table), with distance entries and path entries
disambiguated by key parity so that both logically live in one keyspace.
"""

from __future__ import annotations

import threading as _threading
from typing import Any, Hashable


def combined_key(source: int, target: int, num_vertices: int) -> int:
    """The paper's composite cache index ``id(s) * |V| + id(e)``."""
    return source * num_vertices + target


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
        """Insert or refresh ``key``; evicts the least recently used entry.

        Eviction tolerates the oldest key vanishing between selection and
        deletion: every cached value is a deterministic function of its
        key, so a lost eviction race between threads sharing an engine
        only means redundant work — never a wrong value.
        """
        try:
            del self._data[key]
        except KeyError:
            if len(self._data) >= self.maxsize:
                try:
                    del self._data[next(iter(self._data))]
                except (KeyError, StopIteration, RuntimeError):
                    pass
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


class SourceRowCache:
    """LRU of partial single-source distance rows, keyed by source vertex.

    The batched fan-out path (``DijkstraEngine.distance_many``) settles a
    region around one source per call; this cache keeps those regions so
    consecutive batches from the same decision point — the kinetic tree's
    exact access pattern — reuse the swept region instead of re-running
    the search.

    Each entry is ``(settled, exhausted)``: ``settled`` maps vertex ->
    exact distance for the region swept so far, ``exhausted`` records
    that the source's whole component was settled (so a vertex missing
    from ``settled`` is provably unreachable). Re-inserting a source
    *merges* the new region into the old one — settled distances are
    exact regardless of where a bounded search stopped, so rows only ever
    grow more complete.

    Eviction is bounded on two axes: ``capacity`` rows *and*
    ``max_cells`` total settled entries across all rows — a row can be
    O(|V|) on large graphs (one unreachable target sweeps the whole
    component), so a row-count cap alone would admit O(capacity * |V|)
    memory. The most recently merged row is always retained, even when
    it alone exceeds the cell budget (it is the active working set).
    """

    __slots__ = (
        "capacity",
        "max_cells",
        "_rows",
        "_cells",
        "_lock",
        "hits",
        "misses",
    )

    def __init__(self, capacity: int, max_cells: int = 2_000_000):
        if capacity < 1:
            raise ValueError("row cache capacity must be >= 1")
        if max_cells < 1:
            raise ValueError("row cache max_cells must be >= 1")
        self.capacity = capacity
        self.max_cells = max_cells
        self._rows: dict[int, tuple[dict[int, float], bool]] = {}
        self._cells = 0
        # get() and merge() both pop-and-reinsert row entries, and merge
        # additionally does read-modify-write bookkeeping on the _cells
        # budget; threads sharing an engine and interleaving those
        # sequences would orphan entries' cell counts and drift the budget
        # permanently. One lock over both keeps the counter exact; the
        # critical sections are dictionary ops, far cheaper than the
        # Dijkstra sweeps they guard.
        self._lock = _threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, source: int) -> tuple[dict[int, float], bool] | None:
        """The cached ``(settled, exhausted)`` row for ``source``,
        refreshing its recency on a hit."""
        with self._lock:
            try:
                entry = self._rows.pop(source)
            except KeyError:
                self.misses += 1
                return None
            self._rows[source] = entry
            self.hits += 1
            return entry

    def merge(
        self, source: int, settled: dict[int, float], exhausted: bool
    ) -> tuple[dict[int, float], bool]:
        """Fold a freshly swept region into the cached row (grow-only),
        then evict least-recently-used rows past either budget."""
        with self._lock:
            prior = self._rows.pop(source, None)
            if prior is not None:
                merged, was_exhausted = prior
                self._cells -= len(merged)
                merged.update(settled)
                entry = (merged, exhausted or was_exhausted)
            else:
                entry = (dict(settled), exhausted)
            self._cells += len(entry[0])
            self._rows[source] = entry
            while (
                len(self._rows) > self.capacity or self._cells > self.max_cells
            ) and len(self._rows) > 1:
                oldest = next(iter(self._rows))
                evicted, _ = self._rows.pop(oldest)
                self._cells -= len(evicted)
            return entry

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()
            self._cells = 0
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, float]:
        total = self.hits + self.misses
        return {
            "row_hits": self.hits,
            "row_misses": self.misses,
            "row_hit_rate": self.hits / total if total else 0.0,
            "row_entries": len(self._rows),
            "row_cells": self._cells,
        }


class ShortestPathCache:
    """The paper's dual distance/path cache facade.

    Separate capacities mirror the paper's rationale: "more distances can
    be stored in memory, and shortest distance is needed more often than
    shortest path". Distance keys are even (``2i``), path keys odd
    (``2i + 1``), so both families share one integer keyspace as in the
    paper's single-hash-table design.
    """

    __slots__ = ("num_vertices", "distances", "paths")

    def __init__(
        self,
        num_vertices: int,
        distance_capacity: int = 1_000_000,
        path_capacity: int = 10_000,
    ):
        self.num_vertices = num_vertices
        self.distances = LRUCache(distance_capacity)
        self.paths = LRUCache(path_capacity)

    def _key(self, source: int, target: int) -> int:
        return combined_key(source, target, self.num_vertices)

    def get_distance(self, source: int, target: int) -> float | None:
        """Cached ``d(source, target)`` or ``None``."""
        return self.distances.get(2 * self._key(source, target))

    def put_distance(self, source: int, target: int, value: float) -> None:
        """Cache a distance both ways (the graph is undirected)."""
        self.distances.put(2 * self._key(source, target), value)
        self.distances.put(2 * self._key(target, source), value)

    def get_path(self, source: int, target: int) -> list[int] | None:
        """Cached shortest path or ``None``."""
        return self.paths.get(2 * self._key(source, target) + 1)

    def put_path(self, source: int, target: int, path: list[int]) -> None:
        """Cache a path (one direction only; reversal is the caller's call)."""
        self.paths.put(2 * self._key(source, target) + 1, path)

    def clear(self) -> None:
        """Drop both caches."""
        self.distances.clear()
        self.paths.clear()

    def stats(self) -> dict[str, float]:
        """Hit-rate and occupancy snapshot for reporting."""
        return {
            "distance_hits": self.distances.hits,
            "distance_misses": self.distances.misses,
            "distance_hit_rate": self.distances.hit_rate,
            "distance_entries": len(self.distances),
            "path_hits": self.paths.hits,
            "path_misses": self.paths.misses,
            "path_hit_rate": self.paths.hit_rate,
            "path_entries": len(self.paths),
        }
