"""Regression tests pinning the executor/lookahead statistics split.

The feasibility lookahead shares the executor's solver, which used to fold
its traffic into ``ExecutionStatistics.solver_queries``.  The split gives
the lookahead its own bucket (ROADMAP "Context internals"): the executor
counters measure only the engine's own branch checks, and the two buckets
together account exactly for the solver's raw deltas.
"""

from repro.artifacts import update_base_program, update_modified_program
from repro.core.dise import run_dise
from repro.core.directed import DirectedExplorationStrategy
from repro.solver.core import ConstraintSolver
from repro.symexec.engine import symbolic_execute
from repro.symexec.strategy import ExploreEverything


class TestLookaheadStatisticsSplit:
    def test_directed_run_splits_executor_and_lookahead_queries(self):
        solver = ConstraintSolver()
        before = (
            solver.statistics.queries,
            solver.statistics.cache_hits,
            solver.statistics.incremental_hits,
            solver.statistics.prefix_reuses,
        )
        result = run_dise(
            update_base_program(), update_modified_program(), procedure="update",
            solver=solver,
        )
        statistics = result.execution.statistics
        total_queries = solver.statistics.queries - before[0]
        total_cache_hits = solver.statistics.cache_hits - before[1]
        total_incremental = solver.statistics.incremental_hits - before[2]
        total_prefix_reuses = solver.statistics.prefix_reuses - before[3]

        # The lookahead did real work on the update example ...
        assert statistics.lookahead_calls > 0
        assert statistics.lookahead_solver_queries + statistics.lookahead_incremental_hits > 0
        # ... and the two buckets partition the solver's raw deltas exactly.
        assert statistics.solver_queries + statistics.lookahead_solver_queries == total_queries
        assert (
            statistics.solver_cache_hits + statistics.lookahead_cache_hits == total_cache_hits
        )
        assert (
            statistics.incremental_hits + statistics.lookahead_incremental_hits
            == total_incremental
        )
        # The lookahead's persistent context reuses prefixes on the shared
        # solver too; that traffic is carved out the same way.
        assert (
            statistics.prefix_reuses + statistics.lookahead_prefix_reuses
            == total_prefix_reuses
        )
        # Executor counters never go negative (the historical failure mode
        # of subtracting a shared counter twice).
        assert statistics.solver_queries >= 0
        assert statistics.solver_cache_hits >= 0
        assert statistics.incremental_hits >= 0
        assert statistics.prefix_reuses >= 0

    def test_private_lookahead_solver_is_reported_but_not_subtracted(self):
        """Regression: a strategy built without a shared solver gives its
        lookahead a private solver; subtracting that bucket from the
        executor's deltas produced negative counters."""
        from repro.core.dise import DiSE
        from repro.symexec.engine import SymbolicExecutor

        pipeline = DiSE(update_base_program(), update_modified_program(), "update")
        static = pipeline.compute_affected()
        strategy = DirectedExplorationStrategy(static.cfg_mod, static.affected)
        executor = SymbolicExecutor(
            pipeline.modified_program, procedure_name="update", strategy=strategy
        )
        assert not strategy.lookahead_shares_solver(executor.solver)
        result = executor.run()
        statistics = result.statistics
        assert statistics.solver_queries >= 0
        assert statistics.solver_cache_hits >= 0
        assert statistics.incremental_hits >= 0
        # The private bucket still reports the lookahead's own work.
        assert statistics.lookahead_calls > 0

    def test_full_execution_has_no_lookahead_traffic(self):
        solver = ConstraintSolver()
        before = solver.statistics.queries
        result = symbolic_execute(update_modified_program(), "update", solver=solver)
        statistics = result.statistics
        assert statistics.lookahead_calls == 0
        assert statistics.lookahead_solver_queries == 0
        assert statistics.solver_queries == solver.statistics.queries - before

    def test_strategy_exposes_lookahead_bucket(self, update_modified_cfg=None):
        from repro.cfg.builder import build_cfg
        from repro.core.affected import AffectedSets

        cfg = build_cfg(update_modified_program().procedure("update"))
        with_lookahead = DirectedExplorationStrategy(cfg, AffectedSets(cfg))
        assert with_lookahead.lookahead_statistics() is not None
        without = DirectedExplorationStrategy(cfg, AffectedSets(cfg), feasibility_lookahead=False)
        assert without.lookahead_statistics() is None
        assert ExploreEverything().lookahead_statistics() is None

    def test_lookahead_bucket_snapshot_and_dict(self):
        from repro.core.lookahead import LookaheadStatistics

        bucket = LookaheadStatistics(
            calls=2, solver_queries=3, solver_cache_hits=1, walk_memo_hits=4, prefix_syncs=5
        )
        assert bucket.snapshot() == (2, 3, 1, 0, 0, 4, 5)
        assert bucket.as_dict()["solver_queries"] == 3
        assert bucket.as_dict()["walk_memo_hits"] == 4
        assert bucket.as_dict()["budget_bailouts"] == 0
