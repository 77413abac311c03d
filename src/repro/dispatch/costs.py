"""Batch cost-matrix construction.

For a batch of ``m`` requests, the builder fans quote computation out
over the union of per-request candidate sets (grid-index filtered, same
as immediate dispatch) and assembles the request x vehicle matrix the
assignment policies solve over.

Quoting is organized *per vehicle*, not per request: one
:meth:`~repro.core.matching.VehicleAgent.quote_batch` call per candidate
vehicle quotes every request that reached it, so the vehicle's decision
point is computed once and the pickups of the whole candidate set are
screened by one ``distance_many`` fan-out (one cached row on the
Dijkstra engine). A vehicle quoting ``k`` requests therefore does the
per-vehicle setup once instead of ``k`` times.

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

    ``keys[i, j]`` is the snapped quote cost of giving request ``i`` to
    vehicle ``j`` (the total cost of its augmented schedule), ``np.inf``
    where the vehicle is not a candidate or returned no valid schedule.
    ``quotes`` holds the committable :class:`~repro.core.matching.Quote`
    per feasible cell, and ``timings`` the ``(active_trips, seconds)``
    ART sample per quoted cell (``None`` where the vehicle was never
    asked).
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
    The quote stage (:class:`~repro.dispatch.quoting.QuoteService`)
    fills one
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
    (the ART bucket key), and the per-quote seconds."""

    quotes: list[Quote | None]
    active_trips: int
    per_quote_seconds: float


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
) -> ColumnQuotes:
    """Quote one vehicle against its slice of the batch, from its
    decision point at ``now``."""
    active = agent.num_active_trips
    t0 = clock()
    quotes = agent.quote_batch(requests, now)
    per_quote = (clock() - t0) / len(requests)
    return ColumnQuotes(
        quotes=quotes,
        active_trips=active,
        per_quote_seconds=per_quote,
    )


def assemble_matrix(
    plan: ColumnPlan, columns: list[ColumnQuotes]
) -> CostMatrix:
    """Fold quoted columns (aligned with ``plan.agents``) into the
    request x vehicle :class:`CostMatrix` the assignment policies solve
    over, snapping keys to the :data:`KEY_EPSILON` grid."""
    m, n = plan.shape
    keys = np.full((m, n), np.inf, dtype=np.float64)
    quotes: list[list[Quote | None]] = [[None] * n for _ in range(m)]
    timings: list[list[tuple[int, float] | None]] = [
        [None] * n for _ in range(m)
    ]
    for col, quoted in enumerate(columns):
        rows = plan.rows_by_col[col]
        sample = (quoted.active_trips, quoted.per_quote_seconds)
        for row, quote in zip(rows, quoted.quotes):
            timings[row][col] = sample
            if quote is None:
                continue
            quotes[row][col] = quote
            keys[row, col] = snap_key(quote.cost)
    return CostMatrix(
        requests=plan.requests,
        agents=plan.agents,
        keys=keys,
        quotes=quotes,
        timings=timings,
        candidate_counts=plan.candidate_counts,
    )

