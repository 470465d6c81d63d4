"""Tests for the memoized, persistent-context feasibility lookahead.

Covers the failure and cost modes the lookahead's layers address:

* the recursive walk's silent precision loss on deep CFGs (``RecursionError``
  used to be swallowed as "all targets reachable") -- the explicit-stack walk
  must answer exactly with zero bailouts on a CFG far deeper than the
  interpreter recursion limit;
* the per-query context rebuild -- one persistent context synced by longest
  common prefix, visible through ``prefix_syncs`` and the solver's
  ``prefix_reuses``;
* the re-walking of shared suffixes -- memo hits for repeated and
  sibling-equivalent probes, with memoized and unmemoized modes agreeing
  exactly;
* the walk of a query whose targets all lie before the first branch --
  answered from the CFG's branch-free closure, after the feasibility check
  when the state is not vouched for.
"""

import sys

from repro.cfg.builder import build_cfg
from repro.cfg.ir import NodeKind
from repro.core.dise import run_dise
from repro.core.lookahead import FeasibleReachability
from repro.solver.core import ConstraintSolver
from repro.solver.terms import BinaryTerm, IntConst
from repro.artifacts.simple import update_base_program, update_modified_program
from repro.lang.parser import parse_program
from repro.symexec.engine import SymbolicExecutor


def _deep_chain_program(depth: int):
    """``depth`` sequential concrete ifs, then a feasibly unreachable write."""
    lines = ["proc deep(int u) {", "    x = 0;", "    y = 0;"]
    for _ in range(depth):
        lines.append("    x = x + 1;")
        lines.append("    if (x < 100000) { y = y + 1; }")
    lines.append("    if (x == -1) { z = 1; }")
    lines.append("}")
    return parse_program("\n".join(lines))


class TestDeepChainRegression:
    def test_walk_is_exact_beyond_the_recursion_limit(self):
        depth = 1200
        program = _deep_chain_program(depth)
        cfg = build_cfg(program)
        # The walk's path is ~3x the recursion limit: the old recursive
        # visit blew the interpreter stack here and silently answered
        # "all targets reachable".
        assert len(cfg.nodes) > 3 * sys.getrecursionlimit()
        unreachable_write = next(
            node
            for node in cfg.nodes
            if node.kind is NodeKind.ASSIGN and node.target == "z"
        )
        state = SymbolicExecutor(program).initial_state()
        lookahead = FeasibleReachability(cfg, solver=ConstraintSolver(), budget=100_000)
        result = lookahead.reachable_targets(state, {unreachable_write.node_id})
        # x is concretely `depth` at the final branch, so `x == -1` can never
        # hold: the write is statically reachable but feasibly unreachable.
        assert result == set()
        stats = lookahead.statistics.as_dict()
        assert stats["budget_bailouts"] == 0
        assert stats["loop_bailouts"] == 0
        assert stats["eval_bailouts"] == 0
        assert stats["solver_bailouts"] == 0

    def test_budget_exhaustion_is_counted_and_conservative(self):
        program = _deep_chain_program(50)
        cfg = build_cfg(program)
        target = next(
            node
            for node in cfg.nodes
            if node.kind is NodeKind.ASSIGN and node.target == "z"
        )
        state = SymbolicExecutor(program).initial_state()
        lookahead = FeasibleReachability(cfg, solver=ConstraintSolver(), budget=10)
        result = lookahead.reachable_targets(state, {target.node_id})
        # Budget ran out: conservative answer, and the degradation is counted.
        assert result == {target.node_id}
        assert lookahead.statistics.budget_bailouts == 1


class TestWalkMemoization:
    def _setup(self, memoize=True):
        program = update_modified_program()
        cfg = build_cfg(program, "update")
        executor = SymbolicExecutor(program, procedure_name="update")
        lookahead = FeasibleReachability(cfg, solver=executor.solver, memoize=memoize)
        return cfg, executor, lookahead

    def test_repeated_query_hits_the_memo(self):
        cfg, executor, lookahead = self._setup()
        state = executor.initial_state()
        branch_targets = {n.node_id for n in cfg.nodes if n.kind is NodeKind.BRANCH}
        first = lookahead.reachable_targets(state, branch_targets)
        queries_after_first = lookahead.statistics.solver_queries
        second = lookahead.reachable_targets(state, branch_targets)
        assert second == first
        assert lookahead.statistics.walk_memo_hits >= 1
        # The memo hit answered without touching the solver at all.
        assert lookahead.statistics.solver_queries == queries_after_first

    def test_unmemoized_mode_never_hits(self):
        cfg, executor, lookahead = self._setup(memoize=False)
        state = executor.initial_state()
        branch_targets = {n.node_id for n in cfg.nodes if n.kind is NodeKind.BRANCH}
        first = lookahead.reachable_targets(state, branch_targets)
        second = lookahead.reachable_targets(state, branch_targets)
        assert second == first
        assert lookahead.statistics.walk_memo_hits == 0

    def test_modes_agree_on_directed_run_path_conditions(self):
        memoized = run_dise(
            update_base_program(), update_modified_program(), procedure="update",
            solver=ConstraintSolver(), lookahead_memoize=True,
        )
        unmemoized = run_dise(
            update_base_program(), update_modified_program(), procedure="update",
            solver=ConstraintSolver(), lookahead_memoize=False,
        )
        assert sorted(map(str, memoized.execution.summary.distinct_path_conditions())) == sorted(
            map(str, unmemoized.execution.summary.distinct_path_conditions())
        )
        assert memoized.execution.statistics.lookahead_walk_memo_hits > 0
        assert unmemoized.execution.statistics.lookahead_walk_memo_hits == 0

    def test_persistent_context_reuses_prefixes_across_queries(self):
        solver = ConstraintSolver()
        result = run_dise(
            update_base_program(), update_modified_program(), procedure="update",
            solver=solver,
        )
        statistics = result.execution.statistics
        assert statistics.lookahead_calls > 0
        # Each walked query syncs the shared context exactly once, and
        # whole-query memo hits skip the sync entirely (interior hits inside
        # a walk are also counted in walk_memo_hits, so syncs can undershoot
        # calls by more than the sync-skipping root hits).
        assert 0 < statistics.lookahead_prefix_syncs <= statistics.lookahead_calls
        assert statistics.lookahead_walk_memo_hits > 0


STRAIGHT_LINE_SOURCE = """
proc p(int a) {
    x = 1;
    y = 2;
    if (a > 0) { z = 1; }
}
"""


class TestAnswersFromTheCFG:
    """A target the walk reaches before its first branch needs no walk."""

    def _setup(self, memoize=True):
        program = parse_program(STRAIGHT_LINE_SOURCE)
        cfg = build_cfg(program)
        writes = {node.target: node.node_id for node in cfg.nodes if node.kind is NodeKind.ASSIGN}
        state = SymbolicExecutor(program).initial_state()
        lookahead = FeasibleReachability(cfg, solver=ConstraintSolver(), memoize=memoize)
        return writes, state, lookahead

    def test_targets_before_the_first_branch_are_answered_without_a_walk(self):
        writes, state, lookahead = self._setup()
        targets = {writes["x"], writes["y"]}
        assert lookahead.reachable_targets(state, targets, assume_feasible=True) == targets
        stats = lookahead.statistics.as_dict()
        assert (stats["calls"], stats["static_answers"]) == (1, 1)
        assert stats["walk_memo_misses"] == stats["walk_memo_hits"] == stats["prefix_syncs"] == 0

    def test_a_target_behind_a_branch_is_walked(self):
        writes, state, lookahead = self._setup()
        targets = {writes["y"], writes["z"]}
        assert lookahead.reachable_targets(state, targets, assume_feasible=True) == targets
        assert lookahead.statistics.static_answers == 0
        assert lookahead.statistics.walk_memo_misses >= 1

    def test_the_unmemoized_baseline_walks_every_query(self):
        writes, state, lookahead = self._setup(memoize=False)
        targets = {writes["x"], writes["y"]}
        assert lookahead.reachable_targets(state, targets) == targets
        assert lookahead.statistics.static_answers == 0

    def test_an_unvouched_infeasible_state_still_covers_nothing(self):
        writes, state, lookahead = self._setup()
        a = state.env_map()["a"]
        positive, negative = BinaryTerm(">", a, IntConst(0)), BinaryTerm("<", a, IntConst(0))
        infeasible = state.with_constraint(state.node, positive)
        infeasible = infeasible.with_constraint(state.node, negative)
        targets = {writes["x"]}
        assert lookahead.reachable_targets(infeasible, targets) == set()
        assert lookahead.statistics.static_answers == 0
        # A vouched-for state is taken at its word.
        assert lookahead.reachable_targets(infeasible, targets, assume_feasible=True) == targets
        assert lookahead.statistics.static_answers == 1


class TestAssignmentPoisoning:
    def test_undefined_pass_through_write_does_not_bail_the_walk(self):
        # `sink = ghost` reads an undefined variable, but nothing ever
        # branches on sink: the walk must stay exact instead of bailing out.
        program = parse_program(
            """
            proc p(int a) {
                if (a > 0) { b = 1; } else { b = 2; }
                sink = ghost;
                if (a > 5) { c = 1; }
            }
            """
        )
        cfg = build_cfg(program)
        target = next(
            node
            for node in cfg.nodes
            if node.kind is NodeKind.ASSIGN and node.target == "c"
        )
        state = SymbolicExecutor(program).initial_state()
        lookahead = FeasibleReachability(cfg, solver=ConstraintSolver())
        result = lookahead.reachable_targets(state, {target.node_id})
        assert result == {target.node_id}
        assert lookahead.statistics.eval_bailouts == 0

    def test_condition_on_poisoned_variable_still_bails(self):
        program = parse_program(
            """
            proc p(int a) {
                poisoned = ghost;
                if (poisoned > 0) { c = 1; }
            }
            """
        )
        cfg = build_cfg(program)
        target = next(
            node
            for node in cfg.nodes
            if node.kind is NodeKind.ASSIGN and node.target == "c"
        )
        state = SymbolicExecutor(program).initial_state()
        lookahead = FeasibleReachability(cfg, solver=ConstraintSolver())
        result = lookahead.reachable_targets(state, {target.node_id})
        # Conservative: the condition's value is unknowable.
        assert result == {target.node_id}
        assert lookahead.statistics.eval_bailouts == 1
