"""Tables I and II: parameter grids of both experiment suites (paper
values side by side with the scaled values actually used here)."""


def test_table1_parameters(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("table1",), iterations=1, rounds=1
    )
    assert table.headers == ["parameter", "paper", "this reproduction"]
    assert any("Capacity" in row[0] for row in table.rows)


def test_table2_parameters(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("table2",), iterations=1, rounds=1
    )
    capacity_row = next(row for row in table.rows if row[0] == "Capacity")
    assert "unlim" in capacity_row[2]
