"""Sharded dispatch: the subsystem's two headline claims, gated.

Regenerates ``benchmarks/results/sharded_dispatch.txt`` (and
``BENCH_shard.json`` at the repo root) and checks:

* ``shards=1`` on the serial backend reproduces the global solve's
  pairs exactly — the bit-identical fallback;
* per-flush solve wall time improves with shard count on the large
  synthetic flush (serial backend, so the win is the O(n^3) -> k
  blocks work cut, not worker scheduling luck).
"""

import json
import os

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


def _rows_by_key(table):
    return {(row[0], row[1]): row for row in table.rows}


def test_sharded_dispatch(benchmark, run_and_save):
    table = benchmark.pedantic(
        run_and_save, args=("sharded_dispatch",), iterations=1, rounds=1
    )
    rows = _rows_by_key(table)

    # Bit-identical fallback: one serial shard returns the global pairs.
    assert rows[("serial", "1")][6] == "yes"

    # Wall time improves with shard count: the 4-shard serial solve beats
    # the 1-shard (global) solve with margin. Best-of-N timing on a
    # ~200x200 flush keeps this stable across machines.
    doc_path = os.path.join(REPO_ROOT, "BENCH_shard.json")
    assert os.path.exists(doc_path)
    with open(doc_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    serial = doc["runs"]["serial"]
    assert serial["1"]["matches_global"] is True
    assert serial["1"]["boundary_conflicts"] == 0
    t1 = serial["1"]["per_flush_seconds"]
    t4 = serial["4"]["per_flush_seconds"]
    assert t4 <= 0.8 * t1, (t4, t1)
    # Monotone trend at the coarse level: more shards never costs more
    # than the global solve.
    for count in ("2", "4", "8"):
        assert serial[count]["per_flush_seconds"] <= t1, count

    # Sharding trades at most a handful of boundary matches before the
    # policy's sequential cleanup re-quotes them.
    pairs_global = doc["global_solve"]["pairs_matched"]
    for count in ("2", "4", "8"):
        assert serial[count]["pairs_matched"] >= 0.95 * pairs_global
        assert serial[count]["boundary_conflicts"] > 0
