"""Batch cost-matrix construction.

For a batch of ``m`` requests, the builder fans quote computation out
over the union of per-request candidate sets (grid-index filtered, same
as immediate dispatch) and assembles the request x vehicle matrix the
assignment policies solve over.

Quoting is organized *per vehicle*, not per request: one
:meth:`~repro.core.matching.VehicleAgent.quote_batch` call per candidate
vehicle quotes every request that reached it, so the vehicle's decision
point is computed once and the whole candidate set fans out through the
engine's batched ``distance_many`` plane (one bounded sweep per vehicle
on the Dijkstra engine instead of ``k`` point-to-point searches). A
vehicle quoting ``k`` requests therefore does the per-vehicle setup once
instead of ``k`` times.

Solver keys are snapped to the same ``1e-9`` tie tolerance
:meth:`~repro.core.matching.Dispatcher.submit` uses, so batched and
immediate dispatch agree on near-ties that land in the same snap bucket
(see :data:`KEY_EPSILON`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.matching import Dispatcher, Quote, VehicleAgent
from repro.core.request import TripRequest
from repro.obs.trace import clock

#: Immediate dispatch (:meth:`Dispatcher.submit`) treats assignment keys
#: within ``1e-9`` as equal and breaks the tie toward the lowest vehicle
#: id. Solver keys are therefore snapped to this grid before the linear
#: assignment runs: equality after snapping resolves to the lowest
#: column index (columns are ordered by vehicle id), reproducing the
#: immediate tie-break instead of letting sub-nanosecond float noise pick
#: the winner. Snapping is monotone, so a gap wider than the grid is
#: never inverted; near-ties straddling a grid boundary can still
#: compare unequal — the divergence is reduced, not eliminated.
KEY_EPSILON = 1e-9


def snap_key(key: float) -> float:
    """Quantize an assignment key to the :data:`KEY_EPSILON` grid."""
    return round(key / KEY_EPSILON) * KEY_EPSILON


@dataclass(slots=True)
class CostMatrix:
    """The quotes of one batch, matrix-shaped for an assignment solver.

    ``keys[i, j]`` is the assignment objective for giving request ``i``
    to vehicle ``j`` (the quote cost under the ``"total"`` objective, the
    incremental cost under ``"delta"``), ``np.inf`` where the vehicle is
    not a candidate or returned no valid schedule. ``quotes`` holds the
    committable :class:`~repro.core.matching.Quote` per feasible cell,
    and ``timings`` the ``(active_trips, seconds)`` ART sample per quoted
    cell (``None`` where the vehicle was never asked).
    """

    requests: list[TripRequest]
    agents: list[VehicleAgent]
    keys: np.ndarray
    quotes: list[list[Quote | None]]
    timings: list[list[tuple[int, float] | None]]
    candidate_counts: list[int]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.requests), len(self.agents))

    def row_timings(self, row: int) -> list[tuple[int, float]]:
        """ART samples of one request's quotes (quoted cells only)."""
        return [t for t in self.timings[row] if t is not None]


@dataclass(slots=True)
class ColumnPlan:
    """The column layout of one batch's cost matrix, before quoting.

    One plan per flush: the union of the per-request candidate sets,
    ordered by vehicle id (so cost ties resolve to the lowest vehicle
    id, like immediate dispatch), with the rows each vehicle must quote.
    The quote stage — :func:`build_cost_matrix` or the hardened
    :class:`~repro.dispatch.quoting.QuoteService` — fills one
    :class:`ColumnQuotes` per agent and hands both back to
    :func:`assemble_matrix`.
    """

    requests: list[TripRequest]
    agents: list[VehicleAgent]
    rows_by_col: list[list[int]]
    candidate_counts: list[int]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.requests), len(self.agents))


@dataclass(slots=True)
class ColumnQuotes:
    """One vehicle's quoted column: quotes aligned with the plan's rows
    for that column, the vehicle's active-trip count when quoting began
    (the ART bucket key), the per-quote seconds, and the plan-cost
    baseline under the ``"delta"`` objective (0 under ``"total"``)."""

    quotes: list[Quote | None]
    active_trips: int
    per_quote_seconds: float
    plan_cost: float
    #: True when the column could not be quoted at all (the hardened
    #: quote stage exhausted its retry budget): the matrix keeps the
    #: column all-infeasible and writes no timing samples, so a failure
    #: never pollutes the adaptive-throttle ART buckets.
    failed: bool = False


def failed_column(num_rows: int) -> ColumnQuotes:
    """The all-infeasible placeholder for an unquotable column."""
    return ColumnQuotes(
        quotes=[None] * num_rows,
        active_trips=0,
        per_quote_seconds=0.0,
        plan_cost=0.0,
        failed=True,
    )


def plan_columns(
    dispatcher: Dispatcher, requests: list[TripRequest]
) -> ColumnPlan:
    """Candidate-filter a batch into a column plan (no quoting yet)."""
    candidate_sets = [dispatcher.candidates(r) for r in requests]
    agents_by_id: dict[int, VehicleAgent] = {}
    rows_by_id: dict[int, list[int]] = {}
    for row, cands in enumerate(candidate_sets):
        for agent in cands:
            vid = agent.vehicle.vehicle_id
            agents_by_id.setdefault(vid, agent)
            rows_by_id.setdefault(vid, []).append(row)
    ordered_ids = sorted(agents_by_id)
    return ColumnPlan(
        requests=list(requests),
        agents=[agents_by_id[vid] for vid in ordered_ids],
        rows_by_col=[rows_by_id[vid] for vid in ordered_ids],
        candidate_counts=[len(c) for c in candidate_sets],
    )


def quote_column(
    agent: VehicleAgent,
    requests: list[TripRequest],
    now: float,
    objective: str,
) -> ColumnQuotes:
    """Quote one vehicle against its slice of the batch, from its
    decision point at ``now``."""
    active = agent.num_active_trips
    plan_cost = agent.current_plan_cost() if objective == "delta" else 0.0
    t0 = clock()
    quotes = agent.quote_batch(requests, now)
    per_quote = (clock() - t0) / len(requests)
    return ColumnQuotes(
        quotes=quotes,
        active_trips=active,
        per_quote_seconds=per_quote,
        plan_cost=plan_cost,
    )


def assemble_matrix(
    plan: ColumnPlan, columns: list[ColumnQuotes]
) -> CostMatrix:
    """Fold quoted columns (aligned with ``plan.agents``) into the
    request x vehicle :class:`CostMatrix` the assignment policies solve
    over, snapping keys to the :data:`KEY_EPSILON` grid."""
    m, n = plan.shape
    # C-contiguous float64, spelled out: the Hungarian solvers scan the
    # keys row by row and the sharded solve gathers row blocks from them.
    keys = np.full((m, n), np.inf, dtype=np.float64, order="C")
    quotes: list[list[Quote | None]] = [[None] * n for _ in range(m)]
    timings: list[list[tuple[int, float] | None]] = [
        [None] * n for _ in range(m)
    ]
    for col, quoted in enumerate(columns):
        if quoted.failed:
            continue
        rows = plan.rows_by_col[col]
        sample = (quoted.active_trips, quoted.per_quote_seconds)
        for row, quote in zip(rows, quoted.quotes):
            timings[row][col] = sample
            if quote is None:
                continue
            quotes[row][col] = quote
            keys[row, col] = snap_key(quote.cost - quoted.plan_cost)
    return CostMatrix(
        requests=plan.requests,
        agents=plan.agents,
        keys=keys,
        quotes=quotes,
        timings=timings,
        candidate_counts=plan.candidate_counts,
    )


def build_cost_matrix(
    dispatcher: Dispatcher, requests: list[TripRequest], now: float
) -> CostMatrix:
    """Quote every (request, candidate vehicle) pair of a batch.

    Candidate filtering reuses :meth:`Dispatcher.candidates` per request;
    the matrix columns are the union of all candidate sets, ordered by
    vehicle id so cost ties resolve to the lowest vehicle id, like
    immediate dispatch. Keys are snapped to the :data:`KEY_EPSILON` grid
    so costs within :meth:`Dispatcher.submit`'s 1e-9 tie tolerance
    almost always compare equal to the solver too (``quotes`` keep the
    exact costs — snapping only affects who wins, never the reported
    cost).

    This is the bare composition of the three column stages
    (:func:`plan_columns` -> :func:`quote_column` per vehicle ->
    :func:`assemble_matrix`); :class:`~repro.dispatch.quoting.QuoteService`
    runs the same stages under the fault-tolerance layer.
    """
    plan = plan_columns(dispatcher, requests)
    columns = [
        quote_column(
            agent,
            [requests[i] for i in plan.rows_by_col[col]],
            now,
            dispatcher.objective,
        )
        for col, agent in enumerate(plan.agents)
    ]
    return assemble_matrix(plan, columns)
