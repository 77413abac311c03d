"""Figure 8: ART at four active requests, four algorithms, as constraints
and fleet size vary."""


def test_fig8a_by_constraints(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("fig8a",), iterations=1, rounds=1
    )
    assert len(table.rows) == 5
    populated = [
        row for row in table.rows if any(v not in ("-", "DNF") for v in row[1:])
    ]
    assert populated, "no populated ART bucket in any constraint cell"


def test_fig8b_by_servers(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("fig8b",), iterations=1, rounds=1
    )
    assert len(table.rows) == 5
    populated = [
        row for row in table.rows if any(v not in ("-", "DNF") for v in row[1:])
    ]
    assert populated, "no populated ART bucket in any fleet cell"
