"""Exporter tests: JSONL rows and Chrome trace-event output."""

import json

from repro.obs.export import chrome_trace_events, trace_rows, write_chrome_trace, write_jsonl
from repro.obs.spans import TraceRecorder


def _recorder_with_trace():
    recorder = TraceRecorder()
    with recorder.span("root", "run"):
        with recorder.span("child", "phase", wave=0):
            recorder.event("ping", "fault", ident="x")
    return recorder


class TestJsonl:
    def test_rows_header_spans_events_metrics(self):
        recorder = _recorder_with_trace()
        rows = trace_rows(recorder)
        assert rows[0]["type"] == "header"
        assert rows[0]["spans"] == 2
        kinds = [row["type"] for row in rows]
        assert kinds == ["header", "span", "span", "event", "metrics"]
        child = rows[2]
        assert child["parent"] == 0  # index of the root span
        assert child["dur"] >= 0.0

    def test_write_jsonl_round_trips(self, tmp_path):
        recorder = _recorder_with_trace()
        path = tmp_path / "trace.jsonl"
        lines = write_jsonl(recorder, str(path))
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(parsed) == lines
        assert parsed[0]["format"] == 1


class TestChromeTrace:
    def test_events_have_metadata_and_complete_spans(self):
        recorder = _recorder_with_trace()
        events = chrome_trace_events(recorder)
        phases = [event["ph"] for event in events]
        assert phases == ["M", "X", "X", "i"]
        metadata = events[0]
        assert metadata["args"]["name"] == "main"
        spans = [event for event in events if event["ph"] == "X"]
        assert all(event["dur"] >= 0 for event in spans)
        assert all(event["ts"] >= 0 for event in spans)

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        recorder = _recorder_with_trace()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(recorder, str(path), metadata={"benchmark": "t"})
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == count
        assert document["otherData"]["generator"] == "repro.obs"
        assert document["otherData"]["benchmark"] == "t"
