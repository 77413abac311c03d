"""Structured flush-pipeline spans.

One :class:`Tracer` per simulation run collects nested spans —
``flush → snapshot → quote → solve → commit``, with per-column and
per-request children — as flat :class:`SpanRecord` rows that the
exporters (:mod:`repro.obs.export`) turn into a Chrome trace. Two
design rules govern everything here:

* **Disabled means gone.** ``Tracer(enabled=False)`` (and the module
  singleton :data:`NULL_TRACER`) never allocates a span: ``span()``
  returns the shared :data:`NULL_SPAN` sentinel and ``emit()`` returns
  before touching the clock. The hot paths pay one attribute load and
  one branch — nothing else (gated by
  ``benchmarks/test_trace_overhead.py``).
* **Telemetry never steers dispatch.** Spans are written, never read,
  by the pipeline; no control-flow decision may consult the tracer.

Span identity
-------------

The simulator is one thread, and so is the tracer: one stack of open
spans, one sequence counter. Span ids are ``"0:<seq>"`` strings (the
``0`` is the one track the export puts every span on), so every id is
a pure function of call order. A span opened while another is open
becomes its child.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: The one instrumentation clock. Every timing site in the repo reads
#: this alias (monotonic, sub-microsecond) so traces, histograms and
#: report fields are mutually comparable.
clock = time.perf_counter


@dataclass(slots=True)
class SpanRecord:
    """One finished span, flat (parenthood by id, not containment)."""

    name: str
    cat: str
    span_id: str
    parent_id: str | None
    start_s: float
    dur_s: float
    args: dict


class Span:
    """An open span; a context manager that records itself on exit.

    Only ever constructed by an *enabled* :class:`Tracer` — disabled
    tracers hand out the shared :data:`NULL_SPAN` instead.
    """

    __slots__ = (
        "_tracer",
        "name",
        "cat",
        "span_id",
        "parent_id",
        "args",
        "start_s",
        "dur_s",
    )

    def __init__(self, tracer, name, cat, span_id, parent_id, args):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.span_id = span_id
        self.parent_id = parent_id
        self.args = args
        self.start_s = 0.0
        self.dur_s = 0.0

    def annotate(self, **args) -> None:
        """Attach extra key/value args to the span (last write wins)."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start_s = self._tracer._now()
        return self

    def __exit__(self, *exc) -> bool:
        self.dur_s = self._tracer._now() - self.start_s
        self._tracer._pop(self)
        return False

    def __repr__(self) -> str:
        return f"Span({self.name!r}, id={self.span_id})"


class _NullSpan:
    """The do-nothing span a disabled tracer hands out (a singleton)."""

    __slots__ = ()
    name = None
    span_id = None
    parent_id = None
    start_s = 0.0
    dur_s = 0.0

    def annotate(self, **args) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def __repr__(self) -> str:
        return "NULL_SPAN"


#: The shared no-op span. ``tracer.span(...) is NULL_SPAN`` whenever the
#: tracer is disabled — the unit-testable face of "zero span allocation".
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans for one run; cheap when disabled.

    ``enabled=False`` turns every entry point into a constant-time
    no-op (see module docstring). The optional ``clock`` override
    exists for deterministic exporter tests.
    """

    def __init__(self, enabled: bool = True, clock=None):
        self.enabled = enabled
        self._clock = clock  # None = module-level perf_counter alias
        self._records: list[SpanRecord] = []
        self._stack: list[Span] = []
        self._seq = 0

    # -- internal ------------------------------------------------------
    def _now(self) -> float:
        return clock() if self._clock is None else self._clock()

    def _next_id(self) -> str:
        self._seq += 1
        return f"0:{self._seq}"

    def _open_id(self) -> str | None:
        return self._stack[-1].span_id if self._stack else None

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # mis-nested exit: drop it and everything above
            del stack[stack.index(span):]
        self._records.append(
            SpanRecord(
                name=span.name,
                cat=span.cat,
                span_id=span.span_id,
                parent_id=span.parent_id,
                start_s=span.start_s,
                dur_s=span.dur_s,
                args=span.args,
            )
        )

    # -- public --------------------------------------------------------
    def span(self, name: str, cat: str = "flush", **args):
        """Open a span (use as a context manager) whose parent is the
        innermost open span. Returns :data:`NULL_SPAN` when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, cat, self._next_id(), self._open_id(), args)

    def emit(
        self,
        name: str,
        cat: str,
        start_s: float,
        end_s: float,
        parent: Span | None = None,
        **args,
    ) -> None:
        """Record an already-timed section as a completed span.

        For sites whose stopwatch feeds a data structure either way
        (a request's ``submit``, a ``quote.column``): the site keeps its
        stamps and hands them here. The parent is ``parent`` when given,
        else the innermost open span. No-op when disabled — callers may
        skip taking the stamps entirely by checking :attr:`enabled`.
        """
        if not self.enabled:
            return
        self._records.append(
            SpanRecord(
                name=name,
                cat=cat,
                span_id=self._next_id(),
                parent_id=self._open_id() if parent is None else parent.span_id,
                start_s=start_s,
                dur_s=max(0.0, end_s - start_s),
                args=args,
            )
        )

    def records(self) -> list[SpanRecord]:
        """Snapshot of every finished span (collection order)."""
        return list(self._records)

    def __repr__(self) -> str:
        return f"Tracer(enabled={self.enabled}, records={len(self._records)})"


#: Shared disabled tracer: the default value of every ``tracer``
#: attribute in the pipeline, so un-configured call sites stay no-ops
#: without None checks.
NULL_TRACER = Tracer(enabled=False)
