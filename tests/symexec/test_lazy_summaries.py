"""Recorded summaries and replayed paths are derived on first read.

A subtree recording stores the path records its subtree emitted and derives
the root-relative :class:`ReplayRecord` values only when the entry is first
read; a replay hit emits path records whose environment and trace are
derived only when something reads them.  These tests pin the derived
records to the eager formulas (per recording, and to a cold native run),
check that entries and paths nobody reads are never derived, and that a
degraded subtree still stores nothing.
"""

import dataclasses
import random

import pytest

from repro.artifacts import all_artifacts, interproc_artifacts
from repro.evolution.history import VersionHistoryRunner
from repro.lang.parser import parse_program
from repro.solver.core import DeadlineBudget
from repro.solver.terms import BinaryTerm, IntConst, int_symbol
from repro.symexec import engine
from repro.symexec.engine import SymbolicExecutor, symbolic_execute
from repro.symexec.state import PathCondition
from repro.symexec.summary import PathRecord
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


def in_order(artifact, seed):
    """``artifact``'s history in the order the benchmark's pass 0 runs at
    ``seed``: recorded at seed 0, a seeded shuffle otherwise."""
    if seed == 0:
        return artifact
    versions = list(artifact.versions)
    random.Random(f"{seed}:0:{artifact.name}").shuffle(versions)
    return dataclasses.replace(artifact, versions=tuple(versions))


class _ReplaySpy:
    """Keeps every run's records alive, collects the replayed ones and
    notes which records had their environment or trace read."""

    def __init__(self, monkeypatch):
        #: (ran with a summary cache, the run's records), in run order.
        self.runs = []
        self.replayed = []
        self.read = set()
        spy = self
        run, replayed = SymbolicExecutor.run, PathRecord.replayed

        def spy_run(executor):
            result = run(executor)
            spy.runs.append((executor.summary_cache is not None, result.summary.records))
            return result

        def spy_replayed(cls, *args):
            record = replayed.__func__(cls, *args)
            spy.replayed.append(record)
            return record

        def spy_read(field):
            read = getattr(PathRecord, field).fget

            def spied(record):
                spy.read.add(id(record))
                return read(record)

            return property(spied)

        monkeypatch.setattr(SymbolicExecutor, "run", spy_run)
        monkeypatch.setattr(PathRecord, "replayed", classmethod(spy_replayed))
        monkeypatch.setattr(PathRecord, "final_environment", spy_read("final_environment"))
        monkeypatch.setattr(PathRecord, "trace", spy_read("trace"))


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_unread_replayed_paths_stay_underived(name, monkeypatch):
    """A replayed path is derived exactly when its environment or trace is
    read; on a warm history most never are."""
    spy = _ReplaySpy(monkeypatch)
    VersionHistoryRunner(ARTIFACTS[name], include_full=True).run()
    underived = [record for record in spy.replayed if record._source is not None]
    assert underived
    for record in spy.replayed:
        assert (record._source is None) == (id(record) in spy.read)


@pytest.mark.parametrize("seed", (0, 3))
@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_replayed_paths_equal_the_cold_run(name, seed, monkeypatch):
    """Every record of every warm leg, replayed or not, equals field by field
    the record at the same position of the same leg run cold."""
    artifact = in_order(ARTIFACTS[name], seed)
    spy = _ReplaySpy(monkeypatch)
    # measure_baseline runs each version's legs cold right after its warm
    # ones; the warm base leg (which replays its own recordings) has none.
    VersionHistoryRunner(artifact, include_full=True, measure_baseline=True).run()
    warm = [records for cached, records in spy.runs if cached]
    cold = [records for cached, records in spy.runs if not cached]
    base = symbolic_execute(
        parse_program(artifact.base_source), procedure_name=artifact.procedure_name
    )
    cold.insert(0, base.summary.records)
    assert spy.replayed and len(warm) == len(cold)
    replayed = {id(record) for record in spy.replayed}
    compared = 0
    for warm_records, cold_records in zip(warm, cold):
        assert len(warm_records) == len(cold_records)
        for record, native in zip(warm_records, cold_records):
            compared += id(record) in replayed
            assert record.path_condition == native.path_condition
            assert record.trace == native.trace
            assert record.final_environment == native.final_environment
            assert record.is_error == native.is_error
    assert compared == len(spy.replayed)


def test_a_derived_record_is_the_eager_record():
    """A replayed view compares equal to, hashes like and prints as the
    record built from the same fields, before and after it is derived."""
    x, y, g = int_symbol("x"), int_symbol("y"), int_symbol("g")
    root = (("g", g), ("x", x), ("y", y))
    replay = ReplayRecord(
        constraints=(BinaryTerm(">", x, IntConst(0)),),
        writes=(("r", BinaryTerm("+", x, y)), ("x", IntConst(1))),
        trace=(2, 0, 1),
        is_error=True,
        removed=("y",),
    )
    condition = PathCondition((BinaryTerm("<", y, IntConst(3)),) + replay.constraints)
    environment = (("g", g), ("r", BinaryTerm("+", x, y)), ("x", IntConst(1)))
    eager = PathRecord(condition, environment, (4, 9, 12, 14), True)

    def view():
        return PathRecord.replayed(condition, replay, root, (4,), (12, 14, 9))

    assert view() == eager and eager == view()
    assert hash(view()) == hash(eager)
    assert repr(view()) == repr(eager) and str(view()) == str(eager)
    derived = view()
    assert derived._source is not None
    assert derived.trace == eager.trace and derived._source is None
    assert derived.final_environment == eager.final_environment
    assert derived != PathRecord(condition, eager.final_environment, eager.trace, False)
