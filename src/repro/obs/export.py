"""Trace exporters: JSONL and Chrome trace-event (Perfetto) formats.

Both exporters are pure functions of a finished
:class:`~repro.obs.spans.TraceRecorder`; neither mutates it.  Timestamps
are rebased against the recorder's epoch so a trace always starts near 0.

* :func:`write_jsonl` -- one self-describing JSON object per line: a
  header, then every span, every instant event, and one final metrics
  record.  Greppable, diffable, stream-appendable.
* :func:`write_chrome_trace` -- the Chrome trace-event JSON object format
  (``{"traceEvents": [...]}``, microsecond timestamps).  Loadable directly
  in ``chrome://tracing`` or https://ui.perfetto.dev; each process label
  becomes its own process track.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.spans import Span, TraceRecorder

__all__ = ["trace_rows", "write_jsonl", "chrome_trace_events", "write_chrome_trace"]

#: Format tag for the JSONL header line.
JSONL_FORMAT = 1


def _span_row(recorder: TraceRecorder, span: Span, index: Dict[int, int]) -> Dict:
    end = span.end if span.end is not None else span.start
    return {
        "type": "span",
        "name": span.name,
        "category": span.category,
        "ts": round(span.start - recorder.epoch, 9),
        "dur": round(end - span.start, 9),
        "process": span.process,
        "parent": index.get(id(span.parent), -1) if span.parent is not None else -1,
        "attributes": span.attributes,
    }


def trace_rows(recorder: TraceRecorder) -> List[Dict]:
    """The JSONL export as a list of dicts (header first, metrics last)."""
    index = {id(span): position for position, span in enumerate(recorder.spans)}
    rows: List[Dict] = [
        {
            "type": "header",
            "format": JSONL_FORMAT,
            "process": recorder.process,
            "processes": recorder.processes(),
            "spans": len(recorder.spans),
            "events": len(recorder.events),
        }
    ]
    rows.extend(_span_row(recorder, span, index) for span in recorder.spans)
    for event in recorder.events:
        rows.append(
            {
                "type": "event",
                "name": event["name"],
                "category": event["category"],
                "ts": round(event["ts"], 9),
                "process": event["process"],
                "attributes": event["attributes"],
            }
        )
    rows.append(
        {
            "type": "metrics",
            "self_seconds": {k: round(v, 9) for k, v in recorder.self_seconds.items()},
            **recorder.metrics.collect(),
        }
    )
    return rows


def write_jsonl(recorder: TraceRecorder, path: str) -> int:
    """Write the JSONL export to ``path``; returns the number of lines."""
    rows = trace_rows(recorder)
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return len(rows)


def _micros(recorder: TraceRecorder, stamp: float) -> float:
    return round((stamp - recorder.epoch) * 1_000_000, 3)


def chrome_trace_events(recorder: TraceRecorder) -> List[Dict]:
    """The ``traceEvents`` list of the Chrome trace-event export.

    Process labels map to small integer pids (parent first); one metadata
    event per process names its track.  Spans become complete (``"X"``)
    events -- the viewers infer nesting from interval containment per
    track, which the recorder's stack discipline guarantees.  Instant events become ``"i"`` events.
    """
    pids = {label: number for number, label in enumerate(recorder.processes(), start=1)}
    events: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
        for label, pid in pids.items()
    ]
    for span in recorder.spans:
        end = span.end if span.end is not None else span.start
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": _micros(recorder, span.start),
                "dur": round((end - span.start) * 1_000_000, 3),
                "pid": pids.get(span.process, 0),
                "tid": 0,
                "args": span.attributes,
            }
        )
    for event in recorder.events:
        events.append(
            {
                "name": event["name"],
                "cat": event["category"],
                "ph": "i",
                "s": "p",
                "ts": round(event["ts"] * 1_000_000, 3),
                "pid": pids.get(event["process"], 0),
                "tid": 0,
                "args": event["attributes"],
            }
        )
    return events


def write_chrome_trace(recorder: TraceRecorder, path: str, metadata: Optional[Dict] = None) -> int:
    """Write the Chrome trace-event export; returns the event count."""
    events = chrome_trace_events(recorder)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}, generator="repro.obs"),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
    return len(events)
