"""Figure 9: tree scalability — ART at six active requests vs
constraints/servers, and the capacity sweep up to unlimited where only
hotspot clustering stays flat."""


def _cell(table, row, col):
    value = table.rows[row][col]
    return None if value in ("-", "DNF") else float(value)


def test_fig9a_by_constraints(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("fig9a",), iterations=1, rounds=1
    )
    assert len(table.rows) == 5


def test_fig9b_by_servers(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("fig9b",), iterations=1, rounds=1
    )
    assert len(table.rows) == 5


def test_fig9c_by_capacity(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("fig9c",), iterations=1, rounds=1
    )
    assert len(table.rows) == 9  # 3,4,5,6,7,8,12,16,unlim
    # Paper shape 1: the hotspot variant completes every capacity
    # including unlimited.
    hotspot_values = [_cell(table, r, 3) for r in range(len(table.rows))]
    assert all(v is not None for v in hotspot_values)
    # Paper shape 2: basic/slack blow up (or DNF) at high capacity while
    # hotspot stays flat: compare growth from the smallest capacity row.
    basic_small, basic_large = _cell(table, 0, 1), table.rows[-1][1]
    hot_small, hot_large = hotspot_values[0], hotspot_values[-1]
    assert hot_large < hot_small * 3, "hotspot ACRT should stay flat"
    if basic_large != "DNF":
        assert float(basic_large) > basic_small, (
            "basic tree ACRT should grow with capacity"
        )
