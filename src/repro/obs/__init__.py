"""Unified telemetry: hierarchical spans, metrics and trace export.

The one observability entry point for the whole pipeline.
Everything is stdlib-only and off by default; see ``README.md`` in this
package for the span model and how to open exported traces in Perfetto.

Typical use::

    from repro import obs

    with obs.recording(name="asw-sweep") as recorder:
        report = VersionHistoryRunner(artifact).run()
    obs.export.write_chrome_trace(recorder, "asw.trace.json")

Inside the ``recording`` block every instrumented layer (DiSE phases,
history legs, solver/lookahead/replay self-time, fault injections) lands in the recorder; with no recording
active the instrumented hot paths cost one module-attribute read and a
``None`` check -- no allocation.

API surface:

* :func:`enable` / :func:`disable` / :func:`active` -- the global switch.
* :func:`recording` -- context manager: install a fresh recorder, open a
  root span, hand the recorder back.
* :func:`span` -- open a span when recording, else a shared no-op.
* :func:`timed` -- *always* measures (it replaces ad-hoc
  ``time.perf_counter()`` bookkeeping, so callers read ``.seconds`` even
  when telemetry is off) and additionally records a span when recording.
* :func:`event` / :func:`counter` / :func:`observe` -- no-ops when off.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs import export, metrics, spans
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import ObsError, Span, TraceRecorder, active, install

__all__ = [
    "ObsError",
    "Span",
    "TraceRecorder",
    "MetricsRegistry",
    "Histogram",
    "active",
    "install",
    "enable",
    "disable",
    "recording",
    "span",
    "timed",
    "event",
    "counter",
    "observe",
    "export",
    "metrics",
    "spans",
]


def enable(process: str = "main", detail: bool = False) -> TraceRecorder:
    """Install (and return) a fresh recorder as the active one."""
    recorder = TraceRecorder(process=process, detail=detail)
    install(recorder)
    return recorder


def disable() -> Optional[TraceRecorder]:
    """Turn telemetry off; returns the recorder that was active (if any)."""
    return install(None)


class recording:
    """``with obs.recording(name="run") as recorder:`` -- scoped telemetry.

    Installs a fresh recorder (restoring whatever was active before on
    exit, so recordings nest safely in tests), opens a root span and
    closes every span left open when the block exits.
    """

    def __init__(self, name: str = "run", detail: bool = False, process: str = "main", **attributes):
        self._name = name
        self._detail = detail
        self._process = process
        self._attributes = attributes
        self._previous: Optional[TraceRecorder] = None
        self.recorder: Optional[TraceRecorder] = None

    def __enter__(self) -> TraceRecorder:
        self.recorder = TraceRecorder(process=self._process, detail=self._detail)
        self._previous = install(self.recorder)
        self.recorder.start_span(self._name, "run", **self._attributes)
        return self.recorder

    def __exit__(self, exc_type, exc, tb) -> None:
        self.recorder.finish()
        install(self._previous)


class _NoopSpanContext:
    """Shared do-nothing context manager for disabled ``obs.span`` calls."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return None


_NOOP_SPAN = _NoopSpanContext()


def span(name: str, category: str = "run", **attributes):
    """A span context manager, or a shared no-op when telemetry is off."""
    recorder = spans._ACTIVE
    if recorder is None:
        return _NOOP_SPAN
    return recorder.span(name, category, **attributes)


class timed:
    """Measure a block on the monotonic clock; record a span when active.

    This is the migration target for the ad-hoc ``perf_counter()``
    bookkeeping: the caller still gets ``.seconds`` unconditionally, and
    when a recorder is installed the same interval appears in the trace
    (one clock, one number).  ``.span`` is the recorded span or None.
    """

    __slots__ = ("_name", "_category", "_attributes", "_start", "_recorder", "seconds", "span")

    def __init__(self, name: str, category: str = "run", **attributes):
        self._name = name
        self._category = category
        self._attributes = attributes
        self.seconds = 0.0
        self.span: Optional[Span] = None
        self._recorder: Optional[TraceRecorder] = None

    def __enter__(self) -> "timed":
        # Captured here so a recorder swapped out mid-block cannot orphan
        # the close.
        self._recorder = spans._ACTIVE
        if self._recorder is not None:
            self.span = self._recorder.start_span(self._name, self._category, **self._attributes)
            self._start = self.span.start
        else:
            self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.span is not None:
            self._recorder.end_span(self.span)
            self.seconds = self.span.seconds
        else:
            self.seconds = time.perf_counter() - self._start


def event(name: str, category: str = "event", **attributes) -> None:
    """Record an instant event (e.g. a fault fired); no-op when off."""
    recorder = spans._ACTIVE
    if recorder is not None:
        recorder.event(name, category, **attributes)


def counter(name: str, value: float = 1) -> None:
    """Increment a registry counter; no-op when off."""
    recorder = spans._ACTIVE
    if recorder is not None:
        recorder.metrics.inc(name, value)


def observe(name: str, value: float) -> None:
    """Observe a histogram value; no-op when off."""
    recorder = spans._ACTIVE
    if recorder is not None:
        recorder.metrics.observe(name, value)
