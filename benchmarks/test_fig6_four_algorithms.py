"""Figure 6: four-algorithm comparison (kinetic tree, brute force,
branch & bound, MIP) — ART by request count, ACRT vs constraints, ACRT
vs fleet size."""


def _cell(table, row, col):
    value = table.rows[row][col]
    return None if value in ("-", "DNF") else float(value)


def test_fig6a_art_by_requests(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("fig6a",), iterations=1, rounds=1
    )
    assert table.rows, "no ART buckets observed"
    # Paper shape: the kinetic tree is not slower than the baselines in
    # the deepest bucket where the tree itself was observed.
    deepest_row = max(
        (r for r in range(len(table.rows)) if _cell(table, r, 1) is not None),
        default=None,
    )
    assert deepest_row is not None, "tree never quoted in any bucket"
    tree = _cell(table, deepest_row, 1)
    others = [
        _cell(table, deepest_row, c)
        for c in (2, 3, 4)
        if _cell(table, deepest_row, c) is not None
    ]
    assert all(tree <= v * 1.5 for v in others), (
        "kinetic tree should not be slower than baselines in the deepest "
        f"bucket: {table.rows[deepest_row]}"
    )


def test_fig6b_acrt_by_constraints(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("fig6b",), iterations=1, rounds=1
    )
    assert len(table.rows) == 5  # the five constraint settings
    for row_index in range(len(table.rows)):
        tree = _cell(table, row_index, 1)
        mip = _cell(table, row_index, 4)
        # Paper shape: MIP is an order of magnitude+ slower than the tree.
        assert tree is not None and mip is not None
        assert mip > 3 * tree, (table.rows[row_index],)


def test_fig6c_acrt_by_servers(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("fig6c",), iterations=1, rounds=1
    )
    assert len(table.rows) == 5  # five fleet sizes
    for row_index in range(len(table.rows)):
        tree = _cell(table, row_index, 1)
        bf = _cell(table, row_index, 2)
        assert tree is not None and bf is not None
