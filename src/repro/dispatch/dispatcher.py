"""The batch dispatcher: one flush at a time instead of one request.

:class:`BatchDispatcher` generalises the per-request
:class:`~repro.core.matching.Dispatcher` to whole windows: the simulator
hands it the batch a :class:`~repro.dispatch.window.BatchWindow`
accumulated — together with the flush's completed quote stage, when
one ran — and the configured
:class:`~repro.dispatch.policies.DispatchPolicy` solves and commits
(re-quoting itself in later rounds and whenever no quote stage was
handed in). Candidate filtering, quoting and commit semantics are the
underlying dispatcher's — this layer only changes *when* and *together
with whom* requests are matched, which is why a zero-length window under
the ``greedy`` policy reduces exactly to immediate dispatch. With
carry-over enabled it also decides *whether now at all*: losing requests
that can still make the next flush come back in
:attr:`~repro.dispatch.policies.BatchResult.carried` instead of settling
here.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.matching import Dispatcher
from repro.core.request import TripRequest
from repro.dispatch.policies import BatchResult, DispatchPolicy
from repro.dispatch.quoting import QuoteSet


class BatchDispatcher:
    """Matches request batches to vehicles via a pluggable policy."""

    def __init__(self, dispatcher: Dispatcher, policy: DispatchPolicy):
        self.dispatcher = dispatcher
        self.policy = policy

    def make_request(
        self,
        origin: int,
        destination: int,
        request_time: float,
        max_wait: float,
        detour_epsilon: float,
    ) -> TripRequest | None:
        """Stamp a raw trip spec (delegates to the wrapped dispatcher, so
        request ids stay globally sequential)."""
        return self.dispatcher.make_request(
            origin, destination, request_time, max_wait, detour_epsilon
        )

    def dispatch(
        self,
        requests: Sequence[TripRequest],
        now: float,
        quote_set: QuoteSet | None = None,
        carry_deadline: float | None = None,
        fault_deadline: float | None = None,
    ) -> BatchResult:
        """Assign one batch at ``now``; winning quotes are committed.

        ``quote_set`` hands the policy a completed quote stage for this
        exact batch (its round-1 material); ``None`` means the policy
        quotes itself. ``carry_deadline`` (the next flush's instant)
        enables carry-over batching: unassigned requests that can still
        make it come back in :attr:`BatchResult.carried` for re-entry
        into the window instead of being settled in-batch.
        ``fault_deadline`` arms the fault-carry rung of the degradation
        ladder (see
        :meth:`~repro.dispatch.policies.DispatchPolicy.assign`).
        """
        return self.policy.assign(
            self.dispatcher,
            list(requests),
            now,
            quote_set=quote_set,
            carry_deadline=carry_deadline,
            fault_deadline=fault_deadline,
        )

    def __repr__(self) -> str:
        return f"BatchDispatcher(policy={self.policy!r})"
