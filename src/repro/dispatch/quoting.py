"""The quote stage of a batched flush.

A :class:`QuoteService` builds one batch's per-vehicle
:class:`~repro.dispatch.costs.CostMatrix` columns through the same
:func:`~repro.dispatch.costs.plan_columns` /
:func:`~repro.dispatch.costs.quote_column` /
:func:`~repro.dispatch.costs.assemble_matrix` stages the synchronous
:func:`~repro.dispatch.costs.build_cost_matrix` composes, on the calling
thread, at the solve instant: the fleet is quoted as it stands when the
batch is decided, as in the paper and in Simonetto et al.'s per-batch
linear assignment.

:meth:`QuoteService.begin` candidate-filters the batch into a column
plan; :meth:`PendingQuotes.collect` quotes every column and assembles
the matrix. The simulator calls the two back to back inside one flush.

Hardened quoting
----------------

Column quotes run under the fault-tolerance layer (:mod:`repro.faults`):
every attempt may carry an injected fault directive, failures — injected
or real — are retried under the service's
:class:`~repro.faults.RetryPolicy`, retry backoffs and injected delays
are charged against the flush's :class:`~repro.faults.FlushBudget`, and
a column that exhausts its budget is assembled *failed* (all-infeasible,
no timing samples) with a structured
:class:`~repro.faults.TaskFailure` on the :class:`QuoteSet`. Its rows
take the fault-carry rung of the degradation ladder downstream; a flush
that exhausts its deadline budget stops quoting entirely and is flagged
``deadline_exceeded`` so the simulator can downgrade it to greedy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.matching import Dispatcher
from repro.core.request import TripRequest
from repro.dispatch.costs import (
    ColumnPlan,
    ColumnQuotes,
    CostMatrix,
    assemble_matrix,
    failed_column,
    plan_columns,
    quote_column,
)
from repro.exceptions import FlushDeadlineExceededError, QuoteFailedError
from repro.faults import (
    DEFAULT_RETRY,
    FlushBudget,
    NULL_INJECTOR,
    TaskFailure,
    run_with_fault,
)
from repro.obs.trace import NULL_TRACER, clock


@dataclass(slots=True)
class QuoteSet:
    """One batch's completed quote stage.

    ``matrix`` is what the solve stage consumes; ``quote_seconds`` the
    wall time :meth:`PendingQuotes.collect` spent quoting.

    The fault-tolerance fields: ``failed_columns`` are the matrix
    columns that could not be quoted at all (retry budget spent — their
    ``task_failures`` entries say why), ``failed_rows`` the union of
    their rows (the fault-carry candidates), and ``deadline_exceeded``
    flags a flush that blew its deadline budget mid-stage (the
    greedy-downgrade trigger). All empty/False on the fault-free path.
    """

    matrix: CostMatrix
    quote_seconds: float = 0.0
    #: Always 0: nothing is ever re-quoted. Kept, like the separate
    #: ``QuoteService.begin`` / ``PendingQuotes.collect`` entry points,
    #: because the end-to-end benchmark (``benchmarks/e2e/``) wraps and
    #: reads them; ROADMAP item 12 may drop all three.
    requotes: int = 0
    failed_columns: tuple[int, ...] = ()
    failed_rows: frozenset[int] = frozenset()
    task_failures: list[TaskFailure] = field(default_factory=list)
    deadline_exceeded: bool = False


class PendingQuotes:
    """A planned quote stage: :meth:`collect` quotes and assembles it.

    ``budget`` is the flush's deadline budget (``None`` when the flush
    has no deadline).
    """

    __slots__ = ("service", "dispatcher", "plan", "now", "budget")

    def __init__(
        self,
        service: "QuoteService",
        dispatcher: Dispatcher,
        plan: ColumnPlan,
        now: float,
        budget: FlushBudget | None = None,
    ):
        self.service = service
        self.dispatcher = dispatcher
        self.plan = plan
        self.now = now
        self.budget = budget

    def _quote_hardened(self, col: int) -> ColumnQuotes:
        """Quote one column under the retry policy: bounded attempts,
        backoff charged virtually against the flush budget (the
        simulator thread never sleeps), budget checked between attempts.
        Raises :class:`~repro.exceptions.FlushDeadlineExceededError`
        when the budget trips and
        :class:`~repro.exceptions.QuoteFailedError` when every attempt
        failed."""
        plan = self.plan
        agent = plan.agents[col]
        rows = plan.rows_by_col[col]
        col_requests = [plan.requests[i] for i in rows]
        objective = self.dispatcher.objective
        tracer = getattr(self.dispatcher, "tracer", NULL_TRACER)
        injector = self.service.injector
        retry = self.service.retry
        budget = self.budget
        last_error: BaseException | None = None
        for attempt in range(1, retry.max_attempts + 1):
            if attempt > 1:
                injector.record_retry("quote.task")
                if budget is not None:
                    budget.charge(retry.backoff_for(attempt))
            if budget is not None:
                budget.check()
            fault = injector.draw("quote.task", budget=budget)
            c0 = clock() if tracer.enabled else 0.0
            try:
                with injector.engine_window(budget=budget):
                    quoted = run_with_fault(
                        fault,
                        False,
                        retry.timeout_s,
                        quote_column,
                        agent,
                        col_requests,
                        self.now,
                        objective,
                    )
            except (KeyboardInterrupt, SystemExit, FlushDeadlineExceededError):
                raise
            except Exception as error:
                last_error = error
                continue
            if tracer.enabled:
                tracer.emit(
                    "quote.column",
                    "quote",
                    c0,
                    clock(),
                    vehicle=agent.vehicle.vehicle_id,
                    rows=len(rows),
                )
            return quoted
        raise QuoteFailedError(
            agent.vehicle.vehicle_id, retry.max_attempts, last_error
        )

    def collect(self) -> QuoteSet:
        """Quote every column in vehicle-id order and assemble the
        matrix. Unquotable columns degrade per the ladder (see the
        module docstring) instead of raising."""
        plan = self.plan
        budget = self.budget
        task_failures: list[TaskFailure] = []
        failed_cols: list[int] = []
        deadline_exceeded = False
        t0 = clock()
        columns: list[ColumnQuotes] = []
        for col, agent in enumerate(plan.agents):
            quoted = None
            if not deadline_exceeded:
                try:
                    quoted = self._quote_hardened(col)
                except FlushDeadlineExceededError as error:
                    deadline_exceeded = True
                    task_failures.append(
                        TaskFailure(
                            site="quote.task",
                            task_id=agent.vehicle.vehicle_id,
                            attempts=0,
                            error=error,
                        )
                    )
                except QuoteFailedError as error:
                    task_failures.append(
                        TaskFailure(
                            site="quote.task",
                            task_id=error.vehicle_id,
                            attempts=error.attempts,
                            error=error,
                        )
                    )
            if quoted is None:
                failed_cols.append(col)
                quoted = failed_column(len(plan.rows_by_col[col]))
            columns.append(quoted)
        quote_seconds = clock() - t0
        return QuoteSet(
            matrix=assemble_matrix(plan, columns),
            quote_seconds=quote_seconds,
            failed_columns=tuple(failed_cols),
            failed_rows=frozenset(
                row for col in failed_cols for row in plan.rows_by_col[col]
            ),
            task_failures=task_failures,
            deadline_exceeded=deadline_exceeded
            or (budget is not None and budget.exceeded),
        )


class QuoteService:
    """Builds batch cost matrices on the calling thread.

    ``injector`` / ``retry`` wire in the fault-tolerance layer
    (:mod:`repro.faults`); the defaults — a disabled injector and
    :data:`~repro.faults.DEFAULT_RETRY` — keep the fault-free path
    bit-identical to the unhardened service. Spans go to the tracer of
    the dispatcher being quoted for.
    """

    def __init__(self, injector=NULL_INJECTOR, retry=None):
        self.injector = injector
        self.retry = retry if retry is not None else DEFAULT_RETRY

    def begin(
        self,
        dispatcher: Dispatcher,
        requests: list[TripRequest],
        now: float,
        budget: FlushBudget | None = None,
    ) -> PendingQuotes:
        """Candidate-filter one batch into a column plan, to be quoted
        for ``now`` by :meth:`PendingQuotes.collect`. ``budget`` is the
        flush's deadline budget, threaded through to collect-time
        retries and injected delays."""
        return PendingQuotes(
            self, dispatcher, plan_columns(dispatcher, requests), now, budget
        )

    def build(
        self, dispatcher: Dispatcher, requests: list[TripRequest], now: float
    ) -> QuoteSet:
        """The whole quote stage (begin + collect): a matrix
        bit-identical to :func:`~repro.dispatch.costs.build_cost_matrix`,
        which runs the same three stages in the same order."""
        return self.begin(dispatcher, requests, now).collect()
