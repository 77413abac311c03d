"""The LAP solver against brute-force optimal assignment."""

import itertools

import numpy as np
import pytest

from repro.dispatch.solver import assignment_cost, solve_assignment
from repro.exceptions import AssignmentInfeasibleError, ReproError


def brute_force_best(costs: np.ndarray) -> tuple[int, float]:
    """(max feasible cardinality, min total cost at that cardinality)."""
    m, n = costs.shape
    best_card, best_cost = 0, 0.0
    for r in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), r):
            for cols in itertools.permutations(range(n), r):
                if all(np.isfinite(costs[i, j]) for i, j in zip(rows, cols)):
                    total = sum(costs[i, j] for i, j in zip(rows, cols))
                    if r > best_card or (r == best_card and total < best_cost):
                        best_card, best_cost = r, total
    return best_card, best_cost


def random_costs(kind: str, rng: np.random.Generator, m: int, n: int):
    """An ``(m, n)`` cost matrix of one of the oracle's input kinds."""
    if kind == "uniform":
        return rng.uniform(0.0, 100.0, size=(m, n))
    if kind == "ties":
        # Four values only: exact ties everywhere.
        return rng.integers(0, 4, size=(m, n)).astype(float)
    # "mixed": magnitudes from 1e-3 to 1e6 stress the big-M constant.
    return 10.0 ** rng.uniform(-3.0, 6.0, size=(m, n))


# The "uniform" kind keeps its original ids (``[<fraction>-<seed>]``).
ORACLE_CASES = [
    pytest.param(
        kind,
        fraction,
        seed,
        id=("" if kind == "uniform" else f"{kind}-") + f"{fraction}-{seed}",
    )
    for kind in ("uniform", "ties", "mixed")
    for fraction in (0.0, 0.3, 0.7)
    for seed in range(20)
]


@pytest.mark.parametrize("kind, infeasible_fraction, seed", ORACLE_CASES)
def test_matches_brute_force_on_random_matrices(kind, infeasible_fraction, seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    costs = random_costs(kind, rng, m, n)
    costs[rng.random((m, n)) < infeasible_fraction] = np.inf
    pairs = solve_assignment(costs)
    card, cost = brute_force_best(costs)
    assert len(pairs) == card
    if kind == "ties":
        # Small integers sum exactly in any order: no tolerance.
        assert assignment_cost(costs, pairs) == cost
    else:
        assert assignment_cost(costs, pairs) == pytest.approx(cost)
    # One-to-one: no row or column used twice.
    assert len({i for i, _ in pairs}) == len(pairs)
    assert len({j for _, j in pairs}) == len(pairs)


def test_square_exact():
    costs = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    pairs = solve_assignment(costs)
    assert pairs == [(0, 1), (1, 0), (2, 2)]
    assert assignment_cost(costs, pairs) == pytest.approx(5.0)


def test_rectangular_more_rows_than_columns():
    costs = np.array([[1.0], [2.0], [0.5]])
    pairs = solve_assignment(costs)
    assert pairs == [(2, 0)]


def test_rectangular_more_columns_than_rows():
    costs = np.array([[9.0, 1.0, 5.0]])
    assert solve_assignment(costs) == [(0, 1)]


@pytest.mark.parametrize(
    "costs, expected",
    [
        ([[3.0, 1.0, 1.0, 1.0]], [(0, 1)]),
        ([[1.0], [1.0], [0.5], [0.5]], [(2, 0)]),
        ([[2.0, 2.0, 2.0]], [(0, 0)]),
        ([[np.inf, 5.0, 5.0]], [(0, 1)]),
        ([[np.inf], [4.0], [4.0]], [(1, 0)]),
    ],
)
def test_single_row_or_column_ties_go_to_lowest_index(costs, expected):
    """On exact ties a single row takes its lowest cheapest column and a
    single column its lowest cheapest row. Contract ``1-lap-vs-greedy``
    (lowest vehicle id wins a tie, as in the greedy policy) relies on
    this; a solver upgrade that changes it must fail here."""
    assert solve_assignment(np.array(costs)) == expected


def test_infeasible_cells_never_assigned():
    costs = np.array([[np.inf, 3.0], [np.inf, 1.0]])
    pairs = solve_assignment(costs)
    # Only column 1 is usable: exactly one row can be served, the cheaper.
    assert pairs == [(1, 1)]


def test_maximizes_cardinality_before_cost():
    # Serving both rows costs 100 + 100; serving only row 0 would cost 1.
    # Cardinality must win.
    costs = np.array([[1.0, 100.0], [np.inf, 100.0]])
    pairs = solve_assignment(costs)
    assert pairs == [(0, 0), (1, 1)]


def test_all_infeasible():
    assert solve_assignment(np.full((3, 2), np.inf)) == []


def test_empty_dimensions():
    assert solve_assignment(np.zeros((0, 4))) == []
    assert solve_assignment(np.zeros((4, 0))) == []


def test_nan_treated_as_infeasible():
    costs = np.array([[np.nan, 2.0]])
    assert solve_assignment(costs) == [(0, 1)]


def test_non_2d_raises():
    with pytest.raises(ValueError):
        solve_assignment(np.zeros(3))


def test_deterministic():
    rng = np.random.default_rng(11)
    costs = rng.uniform(0, 10, size=(6, 6))
    assert solve_assignment(costs) == solve_assignment(costs.copy())


# ----------------------------------------------------------------------
# Rectangular edge cases and typed infeasibility errors
# ----------------------------------------------------------------------
def test_tall_matrix_with_infeasible_column_rows_compete():
    """rows > cols with infeasibility: only the cheapest rows per column
    survive, and no row is ever silently paired to an inf cell."""
    costs = np.array(
        [[3.0, np.inf], [1.0, np.inf], [np.inf, 7.0], [2.0, 5.0]]
    )
    pairs = solve_assignment(costs)
    # Exact optimum: row 1 takes col 0 (1.0); col 1 goes to the cheaper
    # of rows 2 (7.0) and 3 (5.0) -> row 3.
    assert pairs == [(1, 0), (3, 1)]
    assert assignment_cost(costs, pairs) == pytest.approx(6.0)


def test_single_row_is_argmin_over_finite_cells():
    costs = np.array([[np.inf, 4.0, np.inf, 2.0, 9.0]])
    assert solve_assignment(costs) == [(0, 3)]


def test_single_row_all_infeasible():
    assert solve_assignment(np.array([[np.inf, np.nan, np.inf]])) == []


def test_assignment_cost_raises_on_infeasible_pair():
    costs = np.array([[1.0, np.inf]])
    with pytest.raises(AssignmentInfeasibleError) as excinfo:
        assignment_cost(costs, [(0, 1)])
    assert excinfo.value.rows == (0,)
    # Part of the library hierarchy, catchable as ReproError.
    assert isinstance(excinfo.value, ReproError)
