"""Unit tests for the span recorder: nesting, self-time, the global switch."""

import pytest

from repro import obs
from repro.obs.spans import ObsError, TraceRecorder


class TestSpanNesting:
    def test_children_close_before_parents(self):
        recorder = TraceRecorder()
        outer = recorder.start_span("outer")
        inner = recorder.start_span("inner")
        recorder.end_span(inner)
        recorder.end_span(outer)
        assert inner.parent is outer
        assert inner.end <= outer.end
        assert outer.start <= inner.start

    def test_closing_a_closed_span_raises(self):
        recorder = TraceRecorder()
        span = recorder.start_span("once")
        recorder.end_span(span)
        with pytest.raises(ObsError):
            recorder.end_span(span)

    def test_closing_parent_closes_open_descendants(self):
        """An exception unwinding past inner end_span calls must not wedge
        the stack: closing the parent closes the abandoned children at the
        same instant, preserving child-before-parent ordering."""
        recorder = TraceRecorder()
        outer = recorder.start_span("outer")
        inner = recorder.start_span("inner")
        leaf = recorder.start_span("leaf")
        recorder.end_span(outer)
        assert inner.closed and leaf.closed
        assert leaf.end == inner.end == outer.end
        assert recorder.open_spans() == 0

    def test_finish_closes_everything(self):
        recorder = TraceRecorder()
        recorder.start_span("a")
        recorder.start_span("b")
        recorder.finish()
        assert recorder.open_spans() == 0
        assert all(span.closed for span in recorder.spans)

    def test_span_context_manager_closes_on_exception(self):
        recorder = TraceRecorder()
        with pytest.raises(RuntimeError):
            with recorder.span("doomed"):
                raise RuntimeError("boom")
        assert recorder.spans[0].closed

    def test_attributes_recorded(self):
        recorder = TraceRecorder()
        with recorder.span("named", "cat", wave=3):
            pass
        assert recorder.spans[0].attributes == {"wave": 3}
        assert recorder.spans[0].category == "cat"


class TestSelfTime:
    def test_nested_category_subtracts_from_parent(self):
        recorder = TraceRecorder()
        recorder.begin_category("lookahead")
        recorder.begin_category("solver")
        recorder.end_category()
        recorder.end_category()
        assert recorder.self_seconds["solver"] >= 0.0
        assert recorder.self_seconds["lookahead"] >= 0.0
        # The lookahead's self time excludes the nested solver interval.
        total = sum(recorder.self_seconds.values())
        assert recorder.self_seconds["lookahead"] <= total


class TestGlobalSwitch:
    def test_disabled_span_is_shared_noop(self):
        assert obs.active() is None
        first = obs.span("anything")
        second = obs.span("else")
        assert first is second  # the shared no-op: no allocation when off

    def test_enable_disable_roundtrip(self):
        recorder = obs.enable()
        assert obs.active() is recorder
        assert obs.disable() is recorder
        assert obs.active() is None

    def test_recording_restores_previous(self):
        outer = obs.enable()
        with obs.recording("inner") as inner:
            assert obs.active() is inner
        assert obs.active() is outer
        obs.disable()

    def test_timed_measures_without_recorder(self):
        with obs.timed("block") as timer:
            pass
        assert timer.seconds >= 0.0
        assert timer.span is None

    def test_timed_records_span_with_recorder(self):
        with obs.recording("run") as recorder:
            with obs.timed("block", "cat", k=1) as timer:
                pass
        assert timer.span is not None
        assert timer.span.closed
        assert timer.seconds == timer.span.seconds
        assert any(span.name == "block" for span in recorder.spans)

    def test_counter_event_observe_are_noops_when_off(self):
        obs.counter("x")
        obs.event("y")
        obs.observe("z", 1.0)  # must not raise
