"""Recorded summaries and replayed paths are derived on first read.

A suffix recording stores the path records its subtree emitted and derives
the root-relative :class:`ReplayRecord` values only when the entry is first
read; a segment recording derives them from its captures when it closes; a
replay hit emits path records whose environment and trace are derived only
when something reads them.  These tests pin the derived records to the
eager formulas (per recording, and to a cold native run), check that
entries and paths nobody reads are never derived, and that a degraded
subtree still stores nothing.
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
    """Collects every open suffix recording's records the old way: each
    emitted record is appended to every recording open at the time.  A
    segment recording's collected records are its captures."""

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
                if recording.captures is not None:
                    collected = recording.captures
                if spy._last_store is not None:
                    spy.stored.append((spy._last_store, root, signature, tuple(collected)))

        def spy_store(cache, key, summary):
            spy._last_store = summary
            store(cache, key, summary)

        monkeypatch.setattr(engine, "_Recording", spy_open)
        monkeypatch.setattr(SymbolicExecutor, "_emit", spy_emit)
        monkeypatch.setattr(SymbolicExecutor, "_finalize_recording", spy_finalize)
        monkeypatch.setattr(SummaryCache, "store", spy_store)


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_derived_records_equal_the_eager_formula(name, monkeypatch):
    """Every entry a warm history records derives exactly the records the
    eager per-recording formula gives: a suffix from the paths its subtree
    emitted, a segment from its captures."""
    spy = _RecordingSpy(monkeypatch)
    VersionHistoryRunner(ARTIFACTS[name], include_full=True).run()
    assert spy.stored and not spy.open
    for summary, root, signature, collected in spy.stored:
        assert type(summary) is SubtreeSummary
        assert summary.records == _eager_records(collected, root, signature)


def test_evicted_entries_are_never_derived(monkeypatch):
    """An entry evicted without ever being read never pays for its records."""
    artifact = ARTIFACTS["OAE"]
    # ``hit`` holds the summaries it marks, so no id is reused while marked.
    evicted, hit = [], {}
    begin, lookup, peek = SummaryCache.begin_version, SummaryCache.lookup, SummaryCache.peek

    def spy_begin(cache, *args, **kwargs):
        before = dict(cache.iter_entries())
        dropped = begin(cache, *args, **kwargs)
        after = {key for key, _ in cache.iter_entries()}
        evicted.extend(
            summary
            for key, summary in before.items()
            if key not in after and key[0] == "suffix"
        )
        return dropped

    def spy_read(read):
        def spied(cache, key):
            summary = read(cache, key)
            if summary is not None:
                hit[id(summary)] = summary
            return summary

        return spied

    monkeypatch.setattr(SummaryCache, "begin_version", spy_begin)
    monkeypatch.setattr(SummaryCache, "lookup", spy_read(lookup))
    monkeypatch.setattr(SummaryCache, "peek", spy_read(peek))
    VersionHistoryRunner(
        artifact, include_full=True, summary_cache=SummaryCache(miss_tolerance=1)
    ).run()

    unread = [summary for summary in evicted if id(summary) not in hit]
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

    def spy_store(cache, key, summary):
        stored_after_exhaustion.append(budget.exhausted)
        store(cache, key, summary)

    monkeypatch.setattr(SummaryCache, "store", spy_store)
    degraded = SummaryCache()
    result = symbolic_execute(
        program, procedure_name=artifact.procedure_name, summary_cache=degraded, deadline=budget
    )
    assert result.statistics.completeness == "degraded"
    assert 0 < len(degraded) < len(clean)
    assert not any(stored_after_exhaustion)
    exact = dict(clean.iter_entries())
    for key, summary in degraded.iter_entries():
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
        #: id -> record of every record read.  Holding the record keeps its
        #: id from being reused: a short-lived record (a segment capture,
        #: read once when its recording closes) would otherwise free an id
        #: that a later replayed view takes over, marking it read.
        self.read = {}
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
                spy.read[id(record)] = record
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


def _replay_sources(monkeypatch):
    """The cached records that replayed paths are built from, in emission order."""
    sources = []
    replayed = PathRecord.replayed

    def spy(cls, path_condition, replay, *rest):
        sources.append(replay)
        return replayed.__func__(cls, path_condition, replay, *rest)

    monkeypatch.setattr(PathRecord, "replayed", classmethod(spy))
    return sources


def _fields(record):
    return record.path_condition, record.trace, record.final_environment, record.is_error


def _assert_same_records(warm, cold):
    assert len(warm) == len(cold)
    for record, native in zip(warm, cold):
        assert _fields(record) == _fields(native)


SEGMENT_ERROR_SOURCE = """
proc check(int s) {
    int v = 0;
    assert s != 3;
    if (s > 0) { v = 1; }
    return v;
}

proc main(int a, int b) {
    int x = 0;
    int y = 0;
    if (b > 0) { y = 1; }
    x = check(a);
    y = y + x;
}
"""


def test_an_in_segment_error_replays_from_its_segment():
    """The callee's failing assert lies inside the ``CALL`` segment, so the
    segment recording captures its error path; an edit after the call
    leaves the segment intact, and the warm run replays that error as a
    state at the error node, at its native position."""
    edited = SEGMENT_ERROR_SOURCE.replace("y = y + x;", "y = y - x;")
    cache = SummaryCache()
    symbolic_execute(
        parse_program(SEGMENT_ERROR_SOURCE), procedure_name="main", summary_cache=cache
    )
    assert any(
        record.is_error
        for key, summary in cache.iter_entries()
        if key[0] == "segment"
        for record in summary.records
    )
    warm = symbolic_execute(parse_program(edited), procedure_name="main", summary_cache=cache)
    cold = symbolic_execute(parse_program(edited), procedure_name="main")
    assert warm.statistics.replayed_segments > 0
    assert warm.statistics.states_explored < cold.statistics.states_explored
    assert warm.statistics.error_paths == cold.statistics.error_paths > 0
    _assert_same_records(warm.summary.records, cold.summary.records)


CHAINED_SUFFIX_SOURCE = """
proc main(int a, int c) {
    int t = c;
    int u = 0;
    int r = 0;
    r = 1;
    if (a > 0) { t = a; } else { t = 5; }
    if (t > 3) { u = t; } else { u = 2; }
}
"""


def test_a_chained_suffix_hit_waits_for_a_deferred_continuation():
    """The edit puts a branch on ``c`` before the two diamonds.  Under
    ``c > 0`` the first diamond's segment replays.  Its ``a > 0``
    continuation has no cache key (``t`` is ``a``, a symbol of its path
    condition) and is deferred to the search; its ``a <= 0`` continuation
    (``t = 5``) hits the second diamond's suffix.  That hit must not emit
    its path ahead of the deferred continuation's."""
    edited = CHAINED_SUFFIX_SOURCE.replace(
        "r = 1;", "if (c > 0) { r = 1; } else { r = 2; }"
    )
    cache = SummaryCache()
    symbolic_execute(
        parse_program(CHAINED_SUFFIX_SOURCE), procedure_name="main", summary_cache=cache
    )
    warm = symbolic_execute(parse_program(edited), procedure_name="main", summary_cache=cache)
    cold = symbolic_execute(parse_program(edited), procedure_name="main")
    assert warm.statistics.replayed_segments > 0 and warm.statistics.replayed_paths > 0
    _assert_same_records(warm.summary.records, cold.summary.records)


NESTED_SEGMENT_SOURCE = """
proc main(int a, int c, int d) {
    int t = 0;
    int u = 0;
    int r = 0;
    if (d > 0) {
        if (c > 0) { t = c; } else { t = 5; }
    } else {
        t = 7;
    }
    if (t > 3) { u = t; } else { u = 2; }
    r = d;
}
"""


def test_a_capture_waits_for_a_deferred_continuation():
    """The edit changes ``d`` before the outer branch, so the warm run
    records the outer branch's segment afresh while the inner branch's
    segment replays.  Both end at the ``t > 3`` branch.  The inner replay's
    ``c > 0`` continuation has no cache key (``t`` is ``c``) and is deferred
    to the search; its ``c <= 0`` continuation hits that branch's segment.
    Chain-expanding it would capture it into the outer recording ahead of
    the deferred one.  The warm run must store the entries a cold run
    stores, and a later version replaying the outer segment must keep the
    cold order."""
    edited = NESTED_SEGMENT_SOURCE.replace("    if (d > 0) {", "    d = d + 1;\n    if (d > 0) {")
    tail_edited = edited.replace("r = d;", "r = d + 2;")
    warm_cache = SummaryCache()
    symbolic_execute(
        parse_program(NESTED_SEGMENT_SOURCE), procedure_name="main", summary_cache=warm_cache
    )
    symbolic_execute(parse_program(edited), procedure_name="main", summary_cache=warm_cache)
    cold_cache = SummaryCache()
    symbolic_execute(parse_program(edited), procedure_name="main", summary_cache=cold_cache)
    warm_entries = dict(warm_cache.iter_entries())
    shared = [(key, summary) for key, summary in cold_cache.iter_entries() if key in warm_entries]
    assert any(key[0] == "segment" for key, _ in shared)
    for key, summary in shared:
        assert warm_entries[key] == summary, key[0]
    warm = symbolic_execute(
        parse_program(tail_edited), procedure_name="main", summary_cache=warm_cache
    )
    cold = symbolic_execute(parse_program(tail_edited), procedure_name="main")
    assert warm.statistics.replayed_segments > 0
    _assert_same_records(warm.summary.records, cold.summary.records)

CALLEE_BRANCH_SOURCE = """
global int G;
global int W = 0;

proc pick(int s, int u) {
    int v = 0;
    if (u > 0) { v = 1; } else { v = 2; }
    return v;
}

proc main(int b) {
    int x = 0;
    if (G > 0) { W = 1; } else { W = 2; }
    x = pick(W, b);
}
"""


def test_a_suffix_rooted_in_a_callee_replays_its_frame_pop(monkeypatch):
    """The suffix rooted at ``pick``'s branch reads ``u`` and ``v`` and the
    caller bindings its frame saved, not the formal ``s``.  The upstream
    branch is on a global that suffix does not read, and the edit changes
    only the argument ``W``: the ``CALL`` misses, the callee's branch hits,
    and each replayed path drops ``s``, ``u`` and ``v`` at the return."""
    edited = CALLEE_BRANCH_SOURCE.replace("W = 1;", "W = 3;")
    cache = SummaryCache()
    symbolic_execute(
        parse_program(CALLEE_BRANCH_SOURCE), procedure_name="main", summary_cache=cache
    )
    sources = _replay_sources(monkeypatch)
    warm = symbolic_execute(parse_program(edited), procedure_name="main", summary_cache=cache)
    cold = symbolic_execute(parse_program(edited), procedure_name="main")
    assert {source.removed for source in sources if source.removed} == {("s", "u", "v")}
    _assert_same_records(warm.summary.records, cold.summary.records)
