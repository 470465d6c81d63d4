"""Property tests for the span invariants the exporters rely on.

The two invariants every viewer (and the JSONL diffing in CI) assumes:

1. children close before (or with) their parents, and a child's interval
   is contained in its parent's;
2. timestamps are monotonic -- no span ends before it starts.
"""

from hypothesis import given, settings, strategies as st

from repro.obs.spans import Span, TraceRecorder


def _contained(child: Span, parent: Span) -> bool:
    return parent.start <= child.start and child.end <= parent.end


#: A script of push/pop operations driving the span stack; True = open a
#: child span, False = close the innermost open span (ignored when empty).
span_scripts = st.lists(st.booleans(), min_size=1, max_size=40)


@given(script=span_scripts)
@settings(max_examples=100, deadline=None)
def test_children_close_before_parents(script):
    recorder = TraceRecorder()
    for push in script:
        if push:
            recorder.start_span("s")
        elif recorder.open_spans():
            recorder.end_span(recorder.current_span())
    recorder.finish()
    for span in recorder.spans:
        assert span.closed
        assert span.end >= span.start
        if span.parent is not None:
            assert _contained(span, span.parent)
