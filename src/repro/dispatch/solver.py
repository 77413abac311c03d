"""Linear assignment for batched dispatch.

The ``lap``/``iterative`` policies need a minimum-cost
one-to-one matching between a batch of requests (rows) and candidate
vehicles (columns) where many pairs are infeasible (no valid augmented
schedule — ``np.inf`` in the cost matrix). The solve is
:func:`scipy.optimize.linear_sum_assignment` (shortest augmenting path,
in C++); the brute-force oracle in ``tests/dispatch/test_solver.py``
checks it.

Infeasibility is handled by the standard "big-M" reduction: infeasible
cells are replaced by a constant larger than any possible finite
assignment-cost difference, so the solver first *maximizes the number of
feasible pairs* and only then minimizes total cost among them; pairs that
still land on a big-M cell are dropped from the result.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.exceptions import AssignmentInfeasibleError


def solve_assignment(costs) -> list[tuple[int, int]]:
    """Minimum-cost maximum-cardinality assignment with infeasible cells.

    Parameters
    ----------
    costs:
        ``(m, n)`` array-like; ``costs[i, j]`` is the cost of giving row
        (request) ``i`` to column (vehicle) ``j``, ``np.inf`` (or NaN)
        where the pair is infeasible. Rectangular matrices are fine:
        with more rows than columns at most ``n`` rows are matched, a
        single row degenerates to an argmin over its finite cells, and
        an all-infeasible matrix yields no pairs at all.

    Returns
    -------
    Sorted ``(row, column)`` pairs — at most one per row and per column,
    covering as many rows as feasibility allows, with minimum total cost
    among all such maximum matchings. The pairs are a deterministic
    function of ``costs``; among equal-cost optima the choice is
    scipy's, which for a single row (column) is the lowest-index
    cheapest column (row).
    """
    matrix = np.asarray(costs, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("cost matrix must be 2-dimensional")
    feasible = np.isfinite(matrix)
    if not feasible.any():
        return []
    # Big enough that one extra infeasible cell always costs more than
    # any rearrangement of finite cells can save.
    big = 2.0 * float(np.abs(matrix[feasible]).sum()) + 1.0
    rows, cols = linear_sum_assignment(np.where(feasible, matrix, big))
    keep = feasible[rows, cols]
    # linear_sum_assignment returns rows ascending, one pair per row.
    return list(zip(rows[keep].tolist(), cols[keep].tolist()))


def assignment_cost(costs, pairs) -> float:
    """Total cost of an assignment returned by :func:`solve_assignment`.

    Costing a pair the matrix marks infeasible raises a typed
    :class:`~repro.exceptions.AssignmentInfeasibleError` — a non-finite
    total is always a caller bug, never a meaningful objective value.
    """
    matrix = np.asarray(costs, dtype=float)
    bad = [i for i, j in pairs if not np.isfinite(matrix[i, j])]
    if bad:
        raise AssignmentInfeasibleError(
            bad, "assignment pairs land on infeasible cell(s) in row(s) "
            + ", ".join(str(r) for r in bad)
        )
    return float(sum(matrix[i, j] for i, j in pairs))
