"""Structured, thread-safe flush-pipeline spans.

One :class:`Tracer` per simulation run collects nested spans —
``flush → snapshot → quote → solve → commit``, with per-column and
engine fan-out children — as flat :class:`SpanRecord` rows that the
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
  The adaptive controller's wall-clock latency guard
  (``docs/determinism.md``) remains the lone, documented exception —
  and it predates, and does not go through, this module.

Span identity
-------------

Span ids are ``"<thread>:<seq>"`` strings where ``<thread>`` is the
order in which threads first opened a span on this tracer and
``<seq>`` a per-thread counter. The thread that creates the tracer is
always thread ``0``, so every span opened on the simulator thread has
a fully deterministic id — which is what makes *parent* ids of
worker-thread spans deterministic too: workers inherit an explicit
parent handle captured on the simulator thread at task-submit time
(worker span ids themselves land on whichever pool thread ran the
task, and only their ordering is timing-dependent).

Nesting is tracked per thread: a span opened while another is open on
the same thread becomes its child unless an explicit ``parent=`` handle
overrides it (the cross-thread case).
"""

from __future__ import annotations

import threading
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
    thread: int
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
        "thread",
        "args",
        "start_s",
        "dur_s",
    )

    def __init__(self, tracer, name, cat, span_id, parent_id, thread, args):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread = thread
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


class _ThreadState(threading.local):
    """Per-thread open-span stack + lazily assigned thread ordinal."""

    def __init__(self):
        self.stack: list[Span] = []
        self.ordinal: int | None = None
        self.seq = 0


class Tracer:
    """Collects spans for one run; thread-safe; cheap when disabled.

    ``enabled=False`` turns every entry point into a constant-time
    no-op (see module docstring). The optional ``clock`` override
    exists for deterministic exporter tests.
    """

    def __init__(self, enabled: bool = True, clock=None):
        self.enabled = enabled
        self._clock = clock  # None = module-level perf_counter alias
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._threads = 0
        self._tls = _ThreadState()
        if enabled:
            # Claim ordinal 0 for the creating (simulator) thread so its
            # span ids are deterministic whatever the workers do.
            self._thread_ordinal()

    # -- internal ------------------------------------------------------
    def _now(self) -> float:
        return clock() if self._clock is None else self._clock()

    def _thread_ordinal(self) -> int:
        state = self._tls
        if state.ordinal is None:
            with self._lock:
                state.ordinal = self._threads
                self._threads += 1
        return state.ordinal

    def _push(self, span: Span) -> None:
        self._tls.stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._tls.stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # mis-nested exit: drop it and everything above
            del stack[stack.index(span):]
        with self._lock:
            self._records.append(
                SpanRecord(
                    name=span.name,
                    cat=span.cat,
                    span_id=span.span_id,
                    parent_id=span.parent_id,
                    thread=span.thread,
                    start_s=span.start_s,
                    dur_s=span.dur_s,
                    args=span.args,
                )
            )

    def _next_id(self) -> tuple[str, int]:
        state = self._tls
        ordinal = self._thread_ordinal()
        state.seq += 1
        return f"{ordinal}:{state.seq}", ordinal

    # -- public --------------------------------------------------------
    def span(self, name: str, cat: str = "flush", parent=None, **args):
        """Open a span (use as a context manager).

        ``parent`` accepts a :class:`Span` or a span-id string — the
        cross-thread handle a worker task receives from its issuer.
        Without it, the innermost open span on the current thread is
        the parent. Returns :data:`NULL_SPAN` when disabled.
        """
        if not self.enabled:
            return NULL_SPAN
        span_id, ordinal = self._next_id()
        if parent is None:
            stack = self._tls.stack
            parent_id = stack[-1].span_id if stack else None
        elif isinstance(parent, str):
            parent_id = parent
        else:
            parent_id = parent.span_id
        return Span(self, name, cat, span_id, parent_id, ordinal, args)

    def emit(
        self,
        name: str,
        cat: str,
        start_s: float,
        end_s: float,
        parent=None,
        **args,
    ) -> None:
        """Record an already-timed section as a completed span.

        The migration target for pre-existing ``perf_counter()`` pairs
        whose measured value feeds a data structure either way (solver
        seconds, per-quote ART samples): the site keeps its stopwatch
        and hands the stamps here. No-op when disabled — callers may
        skip taking the stamps entirely by checking :attr:`enabled`.
        """
        if not self.enabled:
            return
        span_id, ordinal = self._next_id()
        if parent is None:
            stack = self._tls.stack
            parent_id = stack[-1].span_id if stack else None
        elif isinstance(parent, str):
            parent_id = parent
        else:
            parent_id = parent.span_id
        with self._lock:
            self._records.append(
                SpanRecord(
                    name=name,
                    cat=cat,
                    span_id=span_id,
                    parent_id=parent_id,
                    thread=ordinal,
                    start_s=start_s,
                    dur_s=max(0.0, end_s - start_s),
                    args=args,
                )
            )

    def current_id(self) -> str | None:
        """Id of the innermost open span on this thread (the handle to
        capture before submitting work to another thread)."""
        if not self.enabled:
            return None
        stack = self._tls.stack
        return stack[-1].span_id if stack else None

    def records(self) -> list[SpanRecord]:
        """Snapshot of every finished span (collection order)."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __repr__(self) -> str:
        return f"Tracer(enabled={self.enabled}, records={len(self._records)})"


#: Shared disabled tracer: the default value of every ``tracer``
#: attribute in the pipeline, so un-configured call sites stay no-ops
#: without None checks.
NULL_TRACER = Tracer(enabled=False)
