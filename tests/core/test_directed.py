"""Unit tests for the directed exploration strategy (Fig. 6)."""

import pytest

from repro.cfg.builder import build_cfg
from repro.core.affected import compute_affected_sets
from repro.core.directed import DirectedExplorationStrategy
from repro.core.dise import DiSE
from repro.lang.parser import parse_program
from repro.symexec.engine import SymbolicExecutor
from repro.symexec.state import SymbolicState


@pytest.fixture
def update_setup(update_modified, update_modified_cfg):
    affected = compute_affected_sets(
        update_modified_cfg, seed_conditionals=[update_modified_cfg.node(0)]
    )
    strategy = DirectedExplorationStrategy(update_modified_cfg, affected)
    executor = SymbolicExecutor(update_modified, "update", strategy=strategy)
    return update_modified_cfg, affected, strategy, executor


def state_at(cfg, executor, node_id):
    env = executor.initial_environment()
    return SymbolicState.make(cfg.node(node_id), env, trace=(node_id,))


class TestSetBookkeeping:
    def test_run_start_initialises_sets_from_affected(self, update_setup):
        cfg, affected, strategy, executor = update_setup
        strategy.on_run_start(executor.initial_state())
        assert strategy.unex_cond == affected.acn
        assert strategy.unex_write == affected.awn
        assert strategy.ex_cond == set() and strategy.ex_write == set()

    def test_on_state_moves_node_to_explored(self, update_setup):
        cfg, affected, strategy, executor = update_setup
        strategy.on_run_start(executor.initial_state())
        strategy.on_state(state_at(cfg, executor, 0))
        assert 0 in strategy.ex_cond and 0 not in strategy.unex_cond

    def test_on_state_ignores_unaffected_nodes(self, update_setup):
        cfg, affected, strategy, executor = update_setup
        strategy.on_run_start(executor.initial_state())
        strategy.on_state(state_at(cfg, executor, 6))
        assert 6 not in strategy.ex_cond and 6 not in strategy.ex_write

    def test_reset_unexplored_restores_node(self, update_setup):
        cfg, affected, strategy, executor = update_setup
        strategy.on_run_start(executor.initial_state())
        strategy.on_state(state_at(cfg, executor, 0))
        strategy._reset_unexplored(0)
        assert 0 in strategy.unex_cond and 0 not in strategy.ex_cond


class TestAffectedLocIsReachable:
    def test_reachable_when_unexplored_node_ahead(self, update_setup):
        cfg, affected, strategy, executor = update_setup
        strategy.on_run_start(executor.initial_state())
        assert strategy.should_explore(state_at(cfg, executor, 1))

    def test_not_reachable_after_everything_explored_on_suffix(self, update_setup):
        cfg, affected, strategy, executor = update_setup
        strategy.on_run_start(executor.initial_state())
        # mark everything explored, then ask about a late node
        for node_id in list(affected.acn | affected.awn):
            strategy.on_state(state_at(cfg, executor, node_id))
        assert not strategy.should_explore(state_at(cfg, executor, 8))
        assert strategy.prune_count == 1

    def test_reset_triggered_for_explored_nodes_reachable_from_unexplored(self, update_setup):
        cfg, affected, strategy, executor = update_setup
        strategy.on_run_start(executor.initial_state())
        # explore the whole first-path suffix (n10..n14), leaving n2/n3/n4 unexplored
        for node_id in (0, 1, 5, 10, 11, 12, 13, 14):
            strategy.on_state(state_at(cfg, executor, node_id))
        assert strategy.should_explore(state_at(cfg, executor, 2))
        # n10..n14 are reachable from the still-unexplored n3/n4, so they reset
        assert {10, 12} <= strategy.unex_cond
        assert {11, 13, 14} <= strategy.unex_write

    def test_disabling_pruning_always_explores(self, update_modified_cfg):
        affected = compute_affected_sets(update_modified_cfg)
        strategy = DirectedExplorationStrategy(
            update_modified_cfg, affected, enable_pruning=False
        )
        dummy_state = SymbolicState.make(update_modified_cfg.node(8), {}, trace=(8,))
        assert strategy.should_explore(dummy_state)


class TestCheckLoops:
    SOURCE = (
        "global int out = 0;"
        "proc f(int n, int flag) {"
        "  int i = 0;"
        "  while (i < n) {"
        "    if (flag > 0) { out = out + 1; } else { out = out + 2; }"
        "    i = i + 1;"
        "  }"
        "}"
    )

    def test_loop_entry_resets_loop_members(self):
        program = parse_program(self.SOURCE)
        cfg = build_cfg(program, "f")
        header = cfg.branch_nodes()[0]
        inner_branch = cfg.branch_nodes()[1]
        affected = compute_affected_sets(cfg, seed_conditionals=[inner_branch])
        strategy = DirectedExplorationStrategy(cfg, affected)
        strategy.on_run_start(SymbolicState.make(cfg.begin, {}, trace=(cfg.begin.node_id,)))
        strategy.on_state(SymbolicState.make(inner_branch, {}, trace=(inner_branch.node_id,)))
        assert inner_branch.node_id in strategy.ex_cond
        # arriving back at the loop entry moves loop members back to unexplored
        strategy._check_loops(header)
        assert inner_branch.node_id in strategy.unex_cond

    def test_dise_explores_loop_iterations_containing_affected_nodes(self):
        """With the affected branch inside a loop, CheckLoops keeps re-arming the
        affected sets, so directed execution explores loop iterations (up to the
        depth bound) instead of stopping after the first pass through the body."""
        program = parse_program(self.SOURCE)
        base = parse_program(self.SOURCE.replace("flag > 0", "flag >= 0"))
        result = DiSE(base, program, procedure_name="f", depth_bound=6).run()
        statistics = result.execution.statistics
        assert statistics.states_explored > 10
        assert statistics.depth_bound_hits > 0
        # the affected inner branch was explored at least once
        inner_branch_id = [n for n in result.diff_map.cfg_mod.branch_nodes()
                           if "flag" in n.label][0].node_id
        assert inner_branch_id in (result.strategy.ex_cond | result.strategy.unex_cond)


class TestAblationSwitches:
    def test_disable_reset_reduces_coverage(self, update_base, update_modified):
        default = DiSE(update_base, update_modified, procedure_name="update").run()
        no_reset = DiSE(
            update_base, update_modified, procedure_name="update", enable_reset=False
        ).run()
        assert len(no_reset.path_conditions) <= len(default.path_conditions)

    def test_disable_pruning_degenerates_to_full(self, update_base, update_modified):
        from repro.symexec.engine import symbolic_execute

        no_pruning = DiSE(
            update_base, update_modified, procedure_name="update", enable_pruning=False
        ).run()
        full = symbolic_execute(update_modified, "update")
        assert len(no_pruning.path_conditions) == len(full.path_conditions)
