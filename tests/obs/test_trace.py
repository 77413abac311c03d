"""Tracer fundamentals: span identity, nesting, the no-op fast path.

Two contracts matter most here:

* **disabled means gone** — a disabled tracer must never construct a
  :class:`~repro.obs.trace.Span` (pinned by poisoning the constructor)
  and ``emit`` must return before touching anything;
* **deterministic identity** — span ids on the tracer-creating thread
  are a pure function of call order, and worker-thread spans carry
  deterministic *parent* ids because the parent handle is captured on
  the issuing thread at submit time.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

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
    assert tracer.current_id() is None
    assert tracer.records() == []


def test_disabled_emit_returns_before_recording():
    tracer = Tracer(enabled=False)
    tracer.emit("quote.column", "quote", 0.0, 5.0, vehicle=1)
    assert tracer.records() == []


# ----------------------------------------------------------------------
# Identity and nesting on one thread
# ----------------------------------------------------------------------
def test_creating_thread_is_ordinal_zero_and_ids_are_sequential():
    tracer = Tracer(enabled=True)
    with tracer.span("a") as a:
        pass
    with tracer.span("b") as b:
        pass
    assert a.span_id == "0:1"
    assert b.span_id == "0:2"
    assert [r.thread for r in tracer.records()] == [0, 0]


def test_nested_spans_parent_to_the_innermost_open_span():
    tracer = Tracer(enabled=True, clock=FakeClock())
    with tracer.span("flush") as flush:
        with tracer.span("solve", cat="solve") as solve:
            assert solve.parent_id == flush.span_id
            with tracer.span("shard.solve") as shard:
                assert shard.parent_id == solve.span_id
        with tracer.span("commit", cat="commit") as commit:
            assert commit.parent_id == flush.span_id
    assert flush.parent_id is None
    # Exit order: innermost records first.
    assert [r.name for r in tracer.records()] == [
        "shard.solve",
        "solve",
        "commit",
        "flush",
    ]


def test_explicit_parent_overrides_the_stack():
    tracer = Tracer(enabled=True)
    with tracer.span("flush") as flush:
        with tracer.span("solve"):
            sibling = tracer.span("quote.column", parent=flush)
            with sibling:
                pass
            by_string = tracer.span("quote.column", parent=flush.span_id)
            with by_string:
                pass
    assert sibling.parent_id == flush.span_id
    assert by_string.parent_id == flush.span_id


def test_current_id_tracks_the_open_span():
    tracer = Tracer(enabled=True)
    assert tracer.current_id() is None
    with tracer.span("flush") as flush:
        assert tracer.current_id() == flush.span_id
        with tracer.span("solve") as solve:
            assert tracer.current_id() == solve.span_id
        assert tracer.current_id() == flush.span_id
    assert tracer.current_id() is None


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
    assert tracer.current_id() is None  # the stack unwound


def test_mis_nested_exit_drops_orphans_instead_of_corrupting():
    tracer = Tracer(enabled=True)
    outer = tracer.span("outer")
    inner = tracer.span("inner")
    outer.__enter__()
    inner.__enter__()
    # Exiting the outer span first drops the forgotten inner frame.
    outer.__exit__(None, None, None)
    assert tracer.current_id() is None


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


def test_clear_empties_the_record_buffer():
    tracer = Tracer(enabled=True)
    with tracer.span("flush"):
        pass
    tracer.clear()
    assert tracer.records() == []


# ----------------------------------------------------------------------
# Cross-thread parent handles (the worker-pool shape)
# ----------------------------------------------------------------------
def test_worker_spans_carry_the_submit_time_parent_handle():
    """The submitting thread opens ``fanout``, captures
    ``current_id()`` and hands it to each pool task. Whatever thread
    runs the task, the recorded parent is the fanout span —
    deterministically, run after run."""
    tracer = Tracer(enabled=True)
    started = threading.Barrier(3, timeout=5.0)

    def task(parent, index):
        started.wait()  # force both workers to participate
        with tracer.span("task", parent=parent, col=index):
            pass

    with ThreadPoolExecutor(max_workers=2) as pool:
        with tracer.span("fanout"):
            parent = tracer.current_id()
            futures = [pool.submit(task, parent, i) for i in range(2)]
            started.wait()
            for future in futures:
                future.result(timeout=5.0)

    records = {r.name: r for r in tracer.records()}
    tasks = [r for r in tracer.records() if r.name == "task"]
    assert len(tasks) == 2
    assert {t.parent_id for t in tasks} == {records["fanout"].span_id}
    assert records["fanout"].span_id == "0:1"  # deterministic
    # Worker ordinals are non-zero: the creating thread owns 0.
    assert all(t.thread > 0 for t in tasks)
    assert all(t.span_id != records["fanout"].span_id for t in tasks)


def test_thread_ordinals_are_first_use_order_and_stable():
    tracer = Tracer(enabled=True)
    seen = []

    def open_one(name):
        with tracer.span(name) as span:
            seen.append((name, span.thread))

    worker = threading.Thread(target=open_one, args=("w",))
    worker.start()
    worker.join()
    open_one("main")
    by_name = dict(seen)
    assert by_name["main"] == 0  # claimed at construction, not first span
    assert by_name["w"] == 1
