"""Hierarchical spans on one monotonic clock.

A :class:`TraceRecorder` is the per-run telemetry sink: a stack of open
:class:`Span` objects (strict nesting -- a child always closes before its
parent, enforced), a list of instant events (fault injections), a
per-category *self-time* ledger and a
:class:`~repro.obs.metrics.MetricsRegistry`.  Everything is timestamped
with ``time.perf_counter()`` -- monotonic, so span intervals never go
backwards even across NTP steps.

Activation is a single module global (:data:`_ACTIVE`).  Hot call sites
(``ConstraintSolver.check``, the lookahead, summary replay) guard on it
directly: with no recorder installed the telemetry cost of a hot loop is
one module-attribute read and a ``None`` comparison -- no allocation, no
call into this module.

Self-time attribution
---------------------
``begin_category``/``end_category`` maintain a category stack separate
from the span stack.  When a category closes, its *self* time (elapsed
minus the time spent in nested categories) is added to
``self_seconds[category]``.  The production categories are ``solver``,
``lookahead`` and ``replay``; nesting does the right thing -- a solver
query issued by the lookahead counts as solver self time and is subtracted
from the lookahead's.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ObsError",
    "Span",
    "TraceRecorder",
    "active",
    "install",
    "clear",
]


class ObsError(RuntimeError):
    """A telemetry API misuse (closing a span that is not the open leaf)."""


class Span:
    """One timed interval: name, category, attributes, parent link.

    ``start``/``end`` are raw ``perf_counter`` readings in the owning
    recorder's clock domain; exporters rebase them against the recorder's
    ``epoch``.  ``end`` is ``None`` while the span is open.
    """

    __slots__ = ("name", "category", "start", "end", "attributes", "parent", "process")

    def __init__(
        self,
        name: str,
        category: str,
        start: float,
        parent: Optional["Span"] = None,
        process: str = "main",
        attributes: Optional[Dict] = None,
    ):
        self.name = name
        self.category = category
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.process = process
        self.attributes: Dict = attributes if attributes is not None else {}

    @property
    def seconds(self) -> float:
        """Duration so far (0.0 while open at the very first instant)."""
        end = self.end if self.end is not None else self.start
        return end - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.seconds:.6f}s" if self.closed else "open"
        return f"Span({self.name!r}, {self.category!r}, {state})"


class TraceRecorder:
    """The per-run telemetry sink (spans + events + self-time + metrics)."""

    def __init__(self, process: str = "main", detail: bool = False):
        #: Label for this recorder's process in exported traces.
        self.process = process
        #: When True, fine-grained spans (one per solver query) are
        #: recorded too.  Off by default: per-query span allocation is the
        #: one telemetry cost that could breach the benchmark overhead
        #: gate on solver-bound runs.
        self.detail = detail
        #: Clock origin: exported timestamps are relative to this.
        self.epoch = time.perf_counter()
        #: Every span ever started, in start order (open spans included).
        self.spans: List[Span] = []
        #: Instant events: dicts with ``name``/``category``/``ts``(relative)
        #: /``process``/``attributes``.
        self.events: List[Dict] = []
        self.metrics = MetricsRegistry()
        #: category -> accumulated self seconds (elapsed minus nested
        #: categories).
        self.self_seconds: Dict[str, float] = {}
        self._stack: List[Span] = []
        # Each frame: [category, start, nested_child_seconds].
        self._cat_stack: List[list] = []

    # -- spans ----------------------------------------------------------------

    def start_span(self, name: str, category: str = "run", **attributes) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name,
            category,
            time.perf_counter(),
            parent=parent,
            process=self.process,
            attributes=attributes,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Span, **attributes) -> Span:
        """Close ``span``; raises :class:`ObsError` if it is not open.

        Open descendants of ``span`` (left behind by an exception that
        unwound past their ``end_span`` calls) are closed first, at the
        same instant -- children always close before parents, even on
        error paths.
        """
        if span not in self._stack:
            raise ObsError(f"closing span {span.name!r} which is not open")
        now = time.perf_counter()
        while self._stack:
            open_span = self._stack.pop()
            open_span.end = now
            if open_span is span:
                break
        if attributes:
            span.attributes.update(attributes)
        return span

    def span(self, name: str, category: str = "run", **attributes) -> "_SpanContext":
        """Context manager opening/closing one span."""
        return _SpanContext(self, name, category, attributes)

    def open_spans(self) -> int:
        return len(self._stack)

    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def finish(self) -> None:
        """Close every span still open (outermost last), newest first."""
        while self._stack:
            self.end_span(self._stack[-1])

    # -- instant events --------------------------------------------------------

    def event(self, name: str, category: str = "event", **attributes) -> Dict:
        record = {
            "name": name,
            "category": category,
            "ts": time.perf_counter() - self.epoch,
            "process": self.process,
            "attributes": attributes,
        }
        self.events.append(record)
        return record

    # -- per-category self time ------------------------------------------------

    def begin_category(self, category: str) -> None:
        self._cat_stack.append([category, time.perf_counter(), 0.0])

    def end_category(self) -> None:
        category, start, child_seconds = self._cat_stack.pop()
        elapsed = time.perf_counter() - start
        self.self_seconds[category] = self.self_seconds.get(category, 0.0) + (
            elapsed - child_seconds
        )
        if self._cat_stack:
            self._cat_stack[-1][2] += elapsed

    # -- summaries -------------------------------------------------------------

    def closed_spans(self) -> List[Span]:
        return [span for span in self.spans if span.closed]

    def processes(self) -> List[str]:
        """Distinct process labels, ``main``/parent first, in first-seen order."""
        seen: List[str] = []
        for span in self.spans:
            if span.process not in seen:
                seen.append(span.process)
        for event in self.events:
            if event["process"] not in seen:
                seen.append(event["process"])
        return seen


# -- the global switch ---------------------------------------------------------

#: The active recorder, or None.  Hot production sites read this module
#: attribute directly so a disabled run costs one load + one comparison.
_ACTIVE: Optional[TraceRecorder] = None


def active() -> Optional[TraceRecorder]:
    """The installed recorder, or None when telemetry is off."""
    return _ACTIVE


def install(recorder: Optional[TraceRecorder]) -> Optional[TraceRecorder]:
    """Install ``recorder`` (or None to disable); returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    return previous


def clear() -> Optional[TraceRecorder]:
    """Disable telemetry; returns the recorder that was active."""
    return install(None)


class _SpanContext:
    """``with recorder.span(...)`` support."""

    __slots__ = ("_recorder", "_name", "_category", "_attributes", "span")

    def __init__(self, recorder: TraceRecorder, name: str, category: str, attributes: Dict):
        self._recorder = recorder
        self._name = name
        self._category = category
        self._attributes = attributes
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._recorder.start_span(
            self._name, self._category, **self._attributes
        )
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._recorder.end_span(self.span)
