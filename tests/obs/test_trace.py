"""Tracer fundamentals: span identity, nesting, the no-op fast path.

Two contracts matter most here:

* **disabled means gone** — a disabled tracer must never construct a
  :class:`~repro.obs.trace.Span` (pinned by poisoning the constructor)
  and ``emit`` must return before touching anything;
* **deterministic identity** — span ids are ``"0:<seq>"``, a pure
  function of call order, and a span's parent is the innermost open
  span.
"""

import pytest

from repro.obs.trace import NULL_SPAN, NULL_TRACER, Span, Tracer


class FakeClock:
    """A controllable clock: every read returns the next scripted tick."""

    def __init__(self, start=0.0, step=1.0):
        self.value = start
        self.step = step

    def __call__(self):
        tick = self.value
        self.value += self.step
        return tick


# ----------------------------------------------------------------------
# Disabled fast path
# ----------------------------------------------------------------------
def test_disabled_span_is_the_shared_null_singleton():
    assert NULL_TRACER.span("flush") is NULL_SPAN
    assert NULL_TRACER.span("anything", cat="quote", extra=1) is NULL_SPAN


def test_null_span_is_an_inert_context_manager():
    with NULL_TRACER.span("flush") as span:
        span.annotate(requests=3)
        assert span is NULL_SPAN
    assert NULL_TRACER.records() == []


def test_disabled_tracer_never_constructs_a_span(monkeypatch):
    """The zero-allocation claim, unit-testable: poison the constructor
    and drive every entry point of a disabled tracer."""

    def explode(*args, **kwargs):
        raise AssertionError("disabled tracer allocated a Span")

    monkeypatch.setattr(Span, "__init__", explode)
    tracer = Tracer(enabled=False)
    with tracer.span("flush", requests=9):
        pass
    tracer.emit("solve", "solve", 0.0, 1.0, rows=3)
    assert tracer.records() == []


def test_disabled_emit_returns_before_recording():
    tracer = Tracer(enabled=False)
    tracer.emit("quote.column", "quote", 0.0, 5.0, vehicle=1)
    assert tracer.records() == []


# ----------------------------------------------------------------------
# Identity and nesting
# ----------------------------------------------------------------------
def test_span_ids_are_sequential():
    tracer = Tracer(enabled=True)
    with tracer.span("a") as a:
        pass
    tracer.emit("b", "flush", 0.0, 1.0)
    with tracer.span("c") as c:
        pass
    assert a.span_id == "0:1"
    assert c.span_id == "0:3"
    assert [r.span_id for r in tracer.records()] == ["0:1", "0:2", "0:3"]


def test_nested_spans_parent_to_the_innermost_open_span():
    tracer = Tracer(enabled=True, clock=FakeClock())
    with tracer.span("flush") as flush:
        with tracer.span("quote.collect", cat="quote") as collect:
            assert collect.parent_id == flush.span_id
            with tracer.span("quote.column", cat="quote") as column:
                assert column.parent_id == collect.span_id
        with tracer.span("commit", cat="commit") as commit:
            assert commit.parent_id == flush.span_id
    assert flush.parent_id is None
    # Exit order: innermost records first.
    assert [r.name for r in tracer.records()] == [
        "quote.column",
        "quote.collect",
        "commit",
        "flush",
    ]


def test_annotate_merges_into_args():
    tracer = Tracer(enabled=True)
    with tracer.span("flush", requests=2) as span:
        span.annotate(requests=5, requotes=1)
    (record,) = tracer.records()
    assert record.args == {"requests": 5, "requotes": 1}


def test_span_survives_exceptions_and_still_records():
    tracer = Tracer(enabled=True, clock=FakeClock())
    with pytest.raises(RuntimeError):
        with tracer.span("flush"):
            raise RuntimeError("solver blew up")
    (record,) = tracer.records()
    assert record.name == "flush"
    assert record.dur_s == 1.0
    with tracer.span("next") as after:  # the stack unwound
        assert after.parent_id is None


def test_mis_nested_exit_drops_orphans_instead_of_corrupting():
    tracer = Tracer(enabled=True)
    outer = tracer.span("outer")
    inner = tracer.span("inner")
    outer.__enter__()
    inner.__enter__()
    # Exiting the outer span first drops the forgotten inner frame.
    outer.__exit__(None, None, None)
    with tracer.span("next") as after:
        assert after.parent_id is None


def test_fake_clock_drives_start_and_duration():
    clock = FakeClock(start=10.0, step=2.5)
    tracer = Tracer(enabled=True, clock=clock)
    with tracer.span("flush"):
        pass
    (record,) = tracer.records()
    assert record.start_s == 10.0
    assert record.dur_s == 2.5


def test_emit_records_caller_stamps_and_clamps_negative_durations():
    tracer = Tracer(enabled=True)
    tracer.emit("solve", "solve", 5.0, 7.0, rows=3)
    tracer.emit("weird", "solve", 7.0, 5.0)
    first, second = tracer.records()
    assert (first.start_s, first.dur_s) == (5.0, 2.0)
    assert first.args == {"rows": 3}
    assert second.dur_s == 0.0
