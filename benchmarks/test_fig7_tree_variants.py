"""Figure 7: tree-variant comparison (basic / slack-time / hotspot) —
ART by request count, ACRT vs constraints, ACRT vs fleet size."""


def _cell(table, row, col):
    value = table.rows[row][col]
    return None if value in ("-", "DNF") else float(value)


def test_fig7a_art_by_requests(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("fig7a",), iterations=1, rounds=1
    )
    assert table.rows
    # ART grows with the number of active requests (paper shape): the
    # deepest bucket should be slower than the idle bucket for the basic
    # tree.
    first = _cell(table, 0, 1)
    deepest = next(
        (_cell(table, r, 1) for r in range(len(table.rows) - 1, 0, -1)
         if _cell(table, r, 1) is not None),
        None,
    )
    assert first is not None and deepest is not None
    assert deepest > first


def test_fig7b_acrt_by_constraints(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("fig7b",), iterations=1, rounds=1
    )
    assert len(table.rows) == 5
    for row in table.rows:
        assert all(value != "DNF" for value in row[1:])


def test_fig7c_acrt_by_servers(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("fig7c",), iterations=1, rounds=1
    )
    assert len(table.rows) == 5
    for row in table.rows:
        assert all(value != "DNF" for value in row[1:])
