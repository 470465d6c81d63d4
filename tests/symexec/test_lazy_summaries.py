"""Suffix summaries are slices of the run, derived into replay records on first read.

A subtree recording stores the path records its subtree emitted and derives
the root-relative :class:`ReplayRecord` values only when the entry is first
read.  These tests pin the derived records to the eager formula applied to
records collected per recording, check that entries nobody reads are never
derived, and that a degraded subtree still stores nothing.
"""

import pytest

from repro.artifacts import all_artifacts, interproc_artifacts
from repro.evolution.history import VersionHistoryRunner
from repro.lang.parser import parse_program
from repro.solver.core import DeadlineBudget
from repro.symexec import engine
from repro.symexec.engine import SymbolicExecutor, symbolic_execute
from repro.symexec.summary_cache import ReplayRecord, SubtreeSummary, SummaryCache

ARTIFACTS = {artifact.name: artifact for artifact in all_artifacts() + interproc_artifacts()}


def _eager_records(paths, root, signature):
    """The replay records a recording rooted at ``root`` derived when it
    closed, before recordings became slices."""
    prefix_len = len(root.path_condition.constraints)
    trace_len = len(root.trace)
    root_env = root.env_map()
    records = []
    for record in paths:
        final_names = {name for name, _ in record.final_environment}
        records.append(
            ReplayRecord(
                constraints=record.path_condition.constraints[prefix_len:],
                writes=tuple(
                    (name, term)
                    for name, term in record.final_environment
                    if root_env.get(name) is not term
                ),
                trace=tuple(signature.index[node_id] for node_id in record.trace[trace_len:]),
                is_error=record.is_error,
                removed=tuple(name for name in root_env if name not in final_names),
            )
        )
    return tuple(records)


class _RecordingSpy:
    """Collects every open subtree recording's records the old way: each
    emitted record is appended to every recording open at the time."""

    def __init__(self, monkeypatch):
        self.open = {}
        #: (stored summary, root state, region signature, collected records)
        self.stored = []
        self._last_store = None
        emit, finalize = SymbolicExecutor._emit, SymbolicExecutor._finalize_recording
        recording_class = engine._Recording
        store = SummaryCache.store
        spy = self

        def spy_open(root_state, signature, *args):
            recording = recording_class(root_state, signature, *args)
            spy.open[recording] = (root_state, signature, [])
            return recording

        def spy_emit(executor, summary, record):
            for recording in executor._recordings:
                spy.open[recording][2].append(record)
            emit(executor, summary, record)

        def spy_finalize(executor, recording, summary):
            spy._last_store = None
            finalize(executor, recording, summary)
            if isinstance(recording, recording_class):
                root, signature, collected = spy.open.pop(recording)
                if spy._last_store is not None:
                    spy.stored.append((spy._last_store, root, signature, tuple(collected)))

        def spy_store(cache, key, summary, pins=()):
            spy._last_store = summary
            store(cache, key, summary, pins)

        monkeypatch.setattr(engine, "_Recording", spy_open)
        monkeypatch.setattr(SymbolicExecutor, "_emit", spy_emit)
        monkeypatch.setattr(SymbolicExecutor, "_finalize_recording", spy_finalize)
        monkeypatch.setattr(SummaryCache, "store", spy_store)


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_derived_records_equal_the_eager_formula(name, monkeypatch):
    """Every suffix entry a warm history records derives exactly the records
    the eager per-recording formula gives."""
    spy = _RecordingSpy(monkeypatch)
    VersionHistoryRunner(ARTIFACTS[name], include_full=True).run()
    assert spy.stored and not spy.open
    for summary, root, signature, collected in spy.stored:
        assert type(summary) is SubtreeSummary
        assert summary.records == _eager_records(collected, root, signature)


def test_evicted_entries_are_never_derived(monkeypatch):
    """An entry evicted without ever being read never pays for its records."""
    artifact = ARTIFACTS["OAE"]
    evicted, hit = [], set()
    begin, lookup, peek = SummaryCache.begin_version, SummaryCache.lookup, SummaryCache.peek

    def spy_begin(cache, *args, **kwargs):
        before = {key: summary for key, summary, _ in cache.iter_entries()}
        dropped = begin(cache, *args, **kwargs)
        after = {key for key, _, _ in cache.iter_entries()}
        evicted.extend(summary for key, summary in before.items() if key not in after)
        return dropped

    def spy_read(read):
        def spied(cache, key):
            summary = read(cache, key)
            if summary is not None:
                hit.add(id(summary))
            return summary

        return spied

    monkeypatch.setattr(SummaryCache, "begin_version", spy_begin)
    monkeypatch.setattr(SummaryCache, "lookup", spy_read(lookup))
    monkeypatch.setattr(SummaryCache, "peek", spy_read(peek))
    VersionHistoryRunner(
        artifact, include_full=True, summary_cache=SummaryCache(miss_tolerance=1)
    ).run()

    unread = [
        summary
        for summary in evicted
        if isinstance(summary, SubtreeSummary) and id(summary) not in hit
    ]
    assert unread
    assert all(summary._source is not None for summary in unread)
    # Reading one now derives it, exactly once.
    records = unread[0].records
    assert unread[0]._source is None and unread[0].records is records


class _Countdown(DeadlineBudget):
    """A budget that expires after a fixed number of admitted solver
    queries, so the run degrades at the same point every time."""

    def __init__(self, admissions):
        super().__init__(seconds=3600)
        self.admissions = admissions

    def expired(self):
        if not self.exhausted:
            self.exhausted = self.admissions <= 0
            self.admissions -= 1
        return self.exhausted


def test_a_subtree_closed_after_degradation_stores_nothing(monkeypatch):
    """The budget runs out mid-run: recordings closed before it stay exact
    and are stored, every recording closed after it is dropped."""
    artifact = ARTIFACTS["WBS"]
    program = parse_program(artifact.base_source)
    clean = SummaryCache()
    symbolic_execute(program, procedure_name=artifact.procedure_name, summary_cache=clean)
    budget = _Countdown(3)
    stored_after_exhaustion = []
    store = SummaryCache.store

    def spy_store(cache, key, summary, pins=()):
        stored_after_exhaustion.append(budget.exhausted)
        store(cache, key, summary, pins)

    monkeypatch.setattr(SummaryCache, "store", spy_store)
    degraded = SummaryCache()
    result = symbolic_execute(
        program, procedure_name=artifact.procedure_name, summary_cache=degraded, deadline=budget
    )
    assert result.statistics.completeness == "degraded"
    assert 0 < len(degraded) < len(clean)
    assert not any(stored_after_exhaustion)
    exact = {key: summary for key, summary, _ in clean.iter_entries()}
    for key, summary, _ in degraded.iter_entries():
        assert summary == exact[key]
