"""Rolling-horizon request accumulation.

Immediate dispatch answers each request the instant it arrives — the
paper's Section VI behavior. Batched dispatch instead collects the
requests arriving within a short window (Simonetto et al. use 10-30 s)
and matches the whole batch at once, trading a bounded extra wait for a
globally better assignment. :class:`BatchWindow` is the accumulator: the
simulator adds requests as they arrive, each periodic ``BATCH_DISPATCH``
event *flushes* the pending batch through quote → solve → commit, and
— with carry-over batching enabled — requests that lose a
flush's assignment :meth:`re-enter <carry>` the window for the next one.

The window length only *shifts* when a request is answered; the service
guarantee is untouched because deadlines are anchored to the original
request time, so every quote computed at flush time already absorbs the
queueing delay. The same anchoring bounds carry-over: a carried request
keeps its original ``pickup_deadline``, so it can only ride along while
its remaining wait budget covers the next flush
(:mod:`repro.dispatch.policies` enforces the bound; the existing
rejection path fires once the budget runs out).

With the adaptive controller (:mod:`repro.dispatch.adaptive`) the
window *length* is retuned per flush; the accumulator itself is
length-agnostic — ``window_s`` mirrors the controller's latest value
for introspection only.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.request import TripRequest


class BatchWindow:
    """Accumulates requests until the next batch-dispatch flush.

    Parameters
    ----------
    window_s:
        Window length in seconds. ``0`` is the degenerate immediate
        window (callers typically bypass the accumulator entirely then);
        negative values are rejected. Under adaptive tuning this mirrors
        the controller's most recent window length.
    """

    __slots__ = ("window_s", "_pending", "num_flushes", "num_carried")

    def __init__(self, window_s: float):
        if window_s < 0:
            raise ValueError("window_s must be >= 0")
        self.window_s = window_s
        self._pending: list[TripRequest] = []
        #: Number of flushes performed (including empty ones).
        self.num_flushes = 0
        #: Number of carry-over re-entries accepted (carry events, not
        #: unique requests).
        self.num_carried = 0

    def add(self, request: TripRequest) -> None:
        """Queue a request for the next flush (arrival order preserved)."""
        self._pending.append(request)

    def carry(self, requests: Iterable[TripRequest]) -> None:
        """Re-admit requests that lost a flush's assignment.

        Carried requests are *prepended*: they arrived before anything
        currently pending (a commit always lands before the next flush,
        so at most one carried cohort is in flight), which keeps every
        flushed batch in global arrival (request-id) order — the
        ordering all deterministic tie-breaks are defined over.
        """
        carried = list(requests)
        self._pending[:0] = carried
        self.num_carried += len(carried)

    def flush(self) -> list[TripRequest]:
        """Drain and return the pending batch in arrival order."""
        batch = self._pending
        self._pending = []
        self.num_flushes += 1
        return batch

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def __repr__(self) -> str:
        return (
            f"BatchWindow(window_s={self.window_s}, "
            f"pending={len(self._pending)})"
        )
