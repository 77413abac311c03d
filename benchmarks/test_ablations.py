"""Design-choice ablations (README, "Design ablations" row): the tree
invalidation policy (eager vs lazy) and schedule-cap load shedding."""


def test_ablation_invalidation(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("ablation_invalidation",), iterations=1, rounds=1
    )
    assert [row[0] for row in table.rows] == ["lazy", "eager"]
    # Invalidation policy changes upkeep cost, never assignments.
    lazy_rate, eager_rate = table.rows[0][2], table.rows[1][2]
    assert lazy_rate == eager_rate


def test_ablation_beam(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("ablation_beam",), iterations=1, rounds=1
    )
    labels = [row[0] for row in table.rows]
    assert labels == ["exact", "32", "8", "2"]
    # Beams bound the tree, so no cell may DNF.
    for row in table.rows:
        assert row[1] != "DNF"


def test_engine_cache_table(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("micro_engine",), iterations=1, rounds=1
    )
    assert [row[0] for row in table.rows] == [
        "matrix",
        "dijkstra+lru",
        "hub_label",
    ]
