"""The quote stage of a batched flush.

A :class:`QuoteService` builds one batch's per-vehicle
:class:`~repro.dispatch.costs.CostMatrix` columns through the
:func:`~repro.dispatch.costs.plan_columns` /
:func:`~repro.dispatch.costs.quote_column` /
:func:`~repro.dispatch.costs.assemble_matrix` stages, on the calling
thread, at the solve instant: the fleet is quoted as it stands when the
batch is decided, as in the paper and in Simonetto et al.'s per-batch
linear assignment.

:meth:`QuoteService.begin` candidate-filters the batch into a column
plan; :meth:`PendingQuotes.collect` quotes every column and assembles
the matrix. The simulator calls the two back to back inside one flush.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.matching import Dispatcher
from repro.core.request import TripRequest
from repro.dispatch.costs import (
    ColumnPlan,
    CostMatrix,
    assemble_matrix,
    plan_columns,
    quote_column,
)
from repro.obs.trace import NULL_TRACER, clock


@dataclass(slots=True)
class QuoteSet:
    """One batch's completed quote stage.

    ``matrix`` is what the solve stage consumes; ``quote_seconds`` the
    wall time :meth:`PendingQuotes.collect` spent quoting.
    """

    matrix: CostMatrix
    quote_seconds: float = 0.0
    #: Always 0: nothing is ever re-quoted. Kept, like the separate
    #: ``QuoteService.begin`` / ``PendingQuotes.collect`` entry points,
    #: because the end-to-end benchmark (``benchmarks/e2e/``) wraps and
    #: reads them; ROADMAP item 12 may drop all three.
    requotes: int = 0


class PendingQuotes:
    """A planned quote stage: :meth:`collect` quotes and assembles it."""

    __slots__ = ("dispatcher", "plan", "now")

    def __init__(self, dispatcher: Dispatcher, plan: ColumnPlan, now: float):
        self.dispatcher = dispatcher
        self.plan = plan
        self.now = now

    def collect(self) -> QuoteSet:
        """Quote every column in vehicle-id order and assemble the
        matrix. An error in a column's quote propagates: nothing is
        retried or skipped."""
        plan = self.plan
        tracer = getattr(self.dispatcher, "tracer", NULL_TRACER)
        t0 = clock()
        columns = []
        for agent, rows in zip(plan.agents, plan.rows_by_col):
            c0 = clock() if tracer.enabled else 0.0
            columns.append(
                quote_column(agent, [plan.requests[i] for i in rows], self.now)
            )
            if tracer.enabled:
                tracer.emit(
                    "quote.column",
                    "quote",
                    c0,
                    clock(),
                    vehicle=agent.vehicle.vehicle_id,
                    rows=len(rows),
                )
        return QuoteSet(
            matrix=assemble_matrix(plan, columns),
            quote_seconds=clock() - t0,
        )


class QuoteService:
    """Builds batch cost matrices on the calling thread. Spans go to
    the tracer of the dispatcher being quoted for."""

    def begin(
        self, dispatcher: Dispatcher, requests: list[TripRequest], now: float
    ) -> PendingQuotes:
        """Candidate-filter one batch into a column plan, to be quoted
        for ``now`` by :meth:`PendingQuotes.collect`."""
        return PendingQuotes(dispatcher, plan_columns(dispatcher, requests), now)

    def build(
        self, dispatcher: Dispatcher, requests: list[TripRequest], now: float
    ) -> QuoteSet:
        """The whole quote stage (begin + collect): every (request,
        candidate vehicle) pair of the batch quoted into one matrix."""
        return self.begin(dispatcher, requests, now).collect()
