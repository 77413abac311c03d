"""Section VI.B closing statistics: occupancy at unlimited capacity
(paper: max 17 passengers, fleet mean 1.7, top-20% mean ~3.9)."""


def test_occupancy_statistics(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("occupancy",), iterations=1, rounds=1
    )
    stats = {row[0]: row[2] for row in table.rows}
    max_passengers = stats.get("max passengers in any server")
    assert max_passengers not in (None, "-", "DNF")
    # Paper shape: a small number of rides need large vehicles (max well
    # above the typical 4-seater) while typical occupancy stays low.
    assert int(max_passengers) >= 5
