"""Bindings are shared: an unchanged ``(name, term)`` pair is never rebuilt.

An environment is a name-sorted tuple of ``(name, term)`` pairs.  Assignment,
call entry and return, and replay used to rebuild it through a dict copy and
a sort, which made a new pair for every binding.  They now keep the pair
object of every binding that did not change.  The property tests pin each
builder to the old ``tuple(sorted(dict))`` formula, in value and in order,
and check that every unchanged name keeps its pair object; the history tests
check the same sharing end to end.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.artifacts import interproc_artifacts
from repro.cfg.builder import RETURN_VARIABLE
from repro.cfg.ir import NodeKind
from repro.evolution.history import VersionHistoryRunner
from repro.lang.parser import parse_program
from repro.solver.terms import IntConst, int_symbol
from repro.symexec.engine import SymbolicExecutor
from repro.symexec.state import SymbolicState, merge_bindings

NAMES = ("a", "b", "c", "g", "h", "p", "r", "t")
TERMS = [IntConst(value) for value in range(3)] + [int_symbol(name) for name in ("a", "b", "g")]

names = st.sampled_from(NAMES)
terms = st.sampled_from(TERMS)
environments = st.dictionaries(names, terms)


def old_formula(environment: dict) -> tuple:
    """How every environment was built before bindings were shared."""
    return tuple(sorted(environment.items()))


def pairs_by_name(environment) -> dict:
    return {binding[0]: binding for binding in environment}


def assert_kept(result, source, names_kept) -> None:
    """Every name in ``names_kept`` has the very pair object of ``source``."""
    kept = pairs_by_name(result)
    for name, binding in pairs_by_name(source).items():
        if name in names_kept:
            assert kept[name] is binding


class TestAssignment:
    @given(environments, st.lists(st.tuples(names, terms), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_matches_old_formula_and_keeps_unchanged_pairs(self, initial, assignments):
        node = parse_and_build().cfg.begin
        state = SymbolicState.make(node, initial)
        expected = dict(initial)
        for name, value in assignments:
            following = state.with_assignment(node, name, value)
            expected[name] = value
            assert following.environment == old_formula(expected)
            unchanged = {other for other, _ in state.environment if other != name}
            if dict(state.environment).get(name) is value:
                unchanged.add(name)
            assert_kept(following.environment, state.environment, unchanged)
            state = following


class TestMerge:
    @given(
        environments,
        st.lists(st.tuples(names, terms), max_size=6),
        st.lists(names, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_old_formula_and_builds_no_pair(self, root, writes, removed):
        root_env = old_formula(root)
        writes = [(name, term) for name, term in writes]
        merged = merge_bindings(root_env, writes, tuple(removed))

        expected = dict(root)
        expected.update(writes)
        for name in removed:
            expected.pop(name, None)
        assert merged == old_formula(expected)
        for binding in merged:
            assert any(binding is pair for pair in root_env) or any(
                binding is pair for pair in writes
            )
        untouched = set(root) - {name for name, _ in writes} - set(removed)
        assert_kept(merged, root_env, untouched)


CALL_PROGRAM = """
global int g = 0;
global int h;
proc callee(int p, int q) { int t = p + q; return t; }
proc main(int a, int b) { int r = 0; int t = 1; r = callee(a, b); }
"""


@lru_cache(maxsize=None)
def parse_and_build() -> SymbolicExecutor:
    """One executor for the program (calls and assignments leave it unchanged)."""
    return SymbolicExecutor(parse_program(CALL_PROGRAM), procedure_name="main")


class TestCallScopes:
    GLOBALS = frozenset({"g", "h"})

    @given(
        environments,
        st.lists(st.tuples(st.sampled_from(("g", "h", "p", "q", "t", RETURN_VARIABLE)), terms), max_size=5),
        terms,
    )
    @settings(max_examples=150, deadline=None)
    def test_enter_and_leave_match_old_formula(self, extra, callee_writes, result):
        executor = parse_and_build()
        cfg = executor.cfg
        call = next(node for node in cfg.nodes if node.kind is NodeKind.CALL)
        back = cfg.node(call.return_node_id)
        caller = {"g": IntConst(0), "h": int_symbol("h"), "a": int_symbol("a"), "b": int_symbol("b")}
        caller.update(extra)
        state = SymbolicState.make(call, caller)

        entered = executor._enter_call(state, call, cfg.successors(call)[0])
        callee_env = {name: term for name, term in caller.items() if name in self.GLOBALS}
        callee_env.update(zip(call.call_params, (caller["a"], caller["b"])))
        assert entered.environment == old_formula(callee_env)
        saved = entered.frames[-1].saved
        assert saved == tuple(
            (name, term) for name, term in old_formula(caller) if name not in self.GLOBALS
        )
        assert_kept(entered.environment, state.environment, self.GLOBALS)
        assert_kept(saved, state.environment, set(caller) - self.GLOBALS)

        inside = entered
        for name, value in callee_writes + [(RETURN_VARIABLE, result)]:
            inside = inside.with_assignment(back, name, value)
        left = executor._leave_call(inside, back, cfg.successors(back)[0])
        caller_env = {
            name: term for name, term in inside.environment if name in self.GLOBALS
        }
        caller_env.update((name, term) for name, term in saved if term is not None)
        caller_env[back.target] = dict(inside.environment)[RETURN_VARIABLE]
        assert left.environment == old_formula(caller_env)
        assert_kept(left.environment, inside.environment, self.GLOBALS)
        restored = {name for name, _ in saved} - {back.target}
        assert_kept(left.environment, saved, restored)


class _SharingSpy:
    """Checks, during a warm history, that unchanged bindings are shared.

    * Every binding in a run's path records that no node on the path
      assigns (an assignment, a call's formals or its return target) is
      the initial state's pair object.
    * Every binding a suffix replay or a segment continuation carries over
      unchanged from its root is the root state's pair object.
    """

    def __init__(self, monkeypatch):
        self.checked = {"initial": 0, "replay": 0, "segment": 0}
        self._segment_roots = []
        spy = self
        initial_state = SymbolicExecutor.initial_state
        run = SymbolicExecutor.run
        replay = SymbolicExecutor._replay
        expand_replayed = SymbolicExecutor._expand_replayed

        def kept_initial_state(self):
            state = initial_state(self)
            self._spied_initial = state
            return state

        def checked_run(self):
            result = run(self)
            initial = self._spied_initial.environment
            for record in result.summary.records:
                assigned = assigned_on(self.cfg, record.trace)
                spy.check(record.final_environment, initial, "initial", assigned)
            return result

        def checked_replay(self, state, signature, cached, summary, *rest):
            if signature.boundary_id is None:
                start = len(summary.records)
                successors = replay(self, state, signature, cached, summary, *rest)
                for record in summary.records[start:]:
                    spy.check(record.final_environment, state.environment, "replay")
                return successors
            spy._segment_roots.append(state)
            try:
                return replay(self, state, signature, cached, summary, *rest)
            finally:
                spy._segment_roots.pop()

        def checked_expand(self, state, *rest):
            if spy._segment_roots:
                spy.check(state.environment, spy._segment_roots[-1].environment, "segment")
            return expand_replayed(self, state, *rest)

        monkeypatch.setattr(SymbolicExecutor, "initial_state", kept_initial_state)
        monkeypatch.setattr(SymbolicExecutor, "run", checked_run)
        monkeypatch.setattr(SymbolicExecutor, "_replay", checked_replay)
        monkeypatch.setattr(SymbolicExecutor, "_expand_replayed", checked_expand)

    def check(self, environment, root_environment, kind, assigned=frozenset()) -> None:
        root = pairs_by_name(root_environment)
        for binding in environment:
            origin = root.get(binding[0])
            if origin is None or binding[0] in assigned:
                continue
            if kind == "initial" or origin[1] is binding[1]:
                assert binding is origin, (kind, binding)
                self.checked[kind] += 1


def assigned_on(cfg, trace) -> frozenset:
    """Every name a node on ``trace`` binds."""
    names = set()
    for node_id in trace:
        node = cfg.node(node_id)
        if node.kind is NodeKind.CALL:
            names.update(node.call_params)
        elif node.kind in (NodeKind.ASSIGN, NodeKind.CALL_RETURN) and node.target is not None:
            names.add(node.target)
    return frozenset(names)


@pytest.mark.parametrize("artifact", interproc_artifacts(), ids=lambda artifact: artifact.name)
def test_warm_history_shares_unchanged_bindings(artifact, monkeypatch):
    spy = _SharingSpy(monkeypatch)
    VersionHistoryRunner(artifact, include_full=True).run()
    assert spy.checked["initial"] > 0
    assert spy.checked["replay"] > 0
