"""Unit tests for the cross-version summary cache and engine replay."""

import pytest

from repro.artifacts import update_base_program, update_modified_program
from repro.cfg.builder import build_cfg
from repro.core.dise import run_dise
from repro.lang.parser import parse_program
from repro.solver.core import ConstraintSolver
from repro.symexec.engine import symbolic_execute
from repro.symexec.summary_cache import SubtreeSummary, SummaryCache
from repro.solver.terms import BinaryTerm, IntConst, int_symbol, term_symbols


def _distinct(summary):
    return sorted(str(pc) for pc in summary.distinct_path_conditions())


def _records(summary):
    return sorted(
        (
            str(record.path_condition),
            tuple((name, str(term)) for name, term in record.final_environment),
            record.trace,
            record.is_error,
        )
        for record in summary.records
    )


class TestTermSymbols:
    def test_memoized_and_correct(self):
        term = BinaryTerm("+", int_symbol("p"), BinaryTerm("*", int_symbol("q"), IntConst(3)))
        assert term_symbols(term) == frozenset({"p", "q"})
        assert term_symbols(term) is term_symbols(term)


class TestSummaryCacheStore:
    def test_lookup_miss_then_hit(self):
        cache = SummaryCache()
        key = ("suffix", "d" * 32, (), (), None)
        assert cache.lookup(key) is None
        summary = SubtreeSummary(procedure="p", digest="d" * 32, records=())
        cache.store(key, summary)
        assert cache.lookup(key) is summary
        assert cache.statistics.hits == 1
        assert cache.statistics.misses == 1
        assert cache.statistics.stores == 1

    def test_begin_version_tolerates_transient_absence(self):
        """A digest missing from one version survives until the tolerance."""
        cache = SummaryCache(miss_tolerance=2)
        key = ("suffix", "live", (), (), None)
        cache.store(key, SubtreeSummary(procedure="p", digest="live", records=()))
        assert cache.begin_version("p", frozenset({"other"})) == 0
        assert len(cache) == 1
        assert cache.begin_version("p", frozenset({"other"})) == 1
        assert len(cache) == 0
        assert cache.statistics.invalidations == 1

    def test_begin_version_resets_missing_streak(self):
        cache = SummaryCache(miss_tolerance=2)
        key = ("segment", "flip", (), (), None)
        cache.store(key, SubtreeSummary(procedure="p", digest="flip", records=()))
        cache.begin_version("p", frozenset())          # absent once
        cache.begin_version("p", frozenset({"flip"}))  # reappears
        cache.begin_version("p", frozenset())          # absent once again
        assert len(cache) == 1

    def test_begin_version_scoped_by_procedure(self):
        cache = SummaryCache(miss_tolerance=1)
        cache.store(("suffix", "x", (), (), None),
                    SubtreeSummary(procedure="p", digest="x", records=()))
        cache.store(("suffix", "y", (), (), None),
                    SubtreeSummary(procedure="q", digest="y", records=()))
        cache.begin_version("p", frozenset())
        assert len(cache) == 1  # q's entry untouched


class TestAdopt:
    """Entries merged in from the persistent store."""

    KEY = ("suffix", "d" * 32, (), ("token",), None)

    @staticmethod
    def _summary():
        return SubtreeSummary(procedure="p", digest="d" * 32, records=())

    def test_adopt_adds_once_and_counts_apart_from_stores(self):
        cache = SummaryCache()
        summary = self._summary()
        assert cache.adopt(self.KEY, summary)
        assert not cache.adopt(self.KEY, self._summary())
        assert self.KEY in cache and len(cache) == 1
        assert cache.statistics.adopted == 1
        assert cache.statistics.stores == 0
        assert cache.lookup(self.KEY) is summary

    def test_hits_on_an_adopted_entry_are_store_hits(self):
        cache = SummaryCache()
        cache.adopt(self.KEY, self._summary())
        cache.lookup(self.KEY)
        cache.peek(self.KEY)
        assert cache.statistics.hits == 2
        assert cache.statistics.store_hits == 2

    def test_a_recorded_entry_wins_and_its_hits_are_not_store_hits(self):
        cache = SummaryCache()
        recorded = self._summary()
        cache.store(self.KEY, recorded)
        assert not cache.adopt(self.KEY, self._summary())
        assert cache.lookup(self.KEY) is recorded
        assert cache.statistics.adopted == 0
        assert cache.statistics.store_hits == 0

    def test_recording_over_an_adopted_entry_makes_it_local(self):
        cache = SummaryCache()
        cache.adopt(self.KEY, self._summary())
        cache.store(self.KEY, self._summary())
        cache.lookup(self.KEY)
        assert cache.statistics.hits == 1
        assert cache.statistics.store_hits == 0
        assert len(cache) == 1

    def test_an_adopted_entry_classifies_token_misses_until_evicted(self):
        cache = SummaryCache(miss_tolerance=1)
        cache.adopt(self.KEY, self._summary())
        other_token = self.KEY[:3] + (("other",),) + self.KEY[4:]
        assert cache.lookup(other_token) is None
        assert cache.statistics.token_misses == 1
        assert cache.begin_version("p", frozenset()) == 1
        assert cache.lookup(other_token) is None
        assert cache.statistics.token_misses == 1
        assert cache.statistics.misses == 2


class TestEngineReplay:
    def test_second_run_is_fully_replayed(self):
        cache = SummaryCache()
        solver = ConstraintSolver()
        program = update_modified_program()
        first = symbolic_execute(program, "update", solver=solver, summary_cache=cache)
        second = symbolic_execute(program, "update", solver=solver, summary_cache=cache)
        assert _records(first.summary) == _records(second.summary)
        assert second.statistics.states_explored == 1
        assert second.statistics.replayed_paths == len(first.summary)
        assert second.statistics.summary_cache_hits == 1
        assert second.statistics.solver_queries == 0

    def test_replay_matches_cold_run_exactly(self):
        cache = SummaryCache()
        solver = ConstraintSolver()
        symbolic_execute(update_base_program(), "update", solver=solver, summary_cache=cache)
        warm = symbolic_execute(
            update_modified_program(), "update", solver=solver, summary_cache=cache
        )
        cold = symbolic_execute(update_modified_program(), "update", solver=ConstraintSolver())
        assert _records(warm.summary) == _records(cold.summary)

    def test_cacheless_runs_never_touch_cache_counters(self):
        result = symbolic_execute(update_modified_program(), "update")
        statistics = result.statistics
        assert statistics.summary_cache_hits == 0
        assert statistics.summary_cache_misses == 0
        assert statistics.summary_cache_stores == 0
        assert statistics.replayed_paths == 0

    def test_build_tree_disables_cache(self):
        cache = SummaryCache()
        result = symbolic_execute(
            update_modified_program(), "update", summary_cache=cache, build_tree=True
        )
        assert result.tree is not None
        assert len(cache) == 0

    def test_depth_budget_partitions_entries(self):
        """Summaries recorded under one depth bound never serve another."""
        cache = SummaryCache()
        solver = ConstraintSolver()
        program = update_modified_program()
        bounded = symbolic_execute(
            program, "update", solver=solver, summary_cache=cache, depth_bound=2
        )
        unbounded = symbolic_execute(program, "update", solver=solver, summary_cache=cache)
        cold_bounded = symbolic_execute(
            update_modified_program(), "update", solver=ConstraintSolver(), depth_bound=2
        )
        cold = symbolic_execute(update_modified_program(), "update", solver=ConstraintSolver())
        assert _records(bounded.summary) == _records(cold_bounded.summary)
        assert _records(unbounded.summary) == _records(cold.summary)

    def test_prefix_dependent_subtrees_are_not_cached(self):
        """When a suffix re-reads prefix symbols, replay must not transfer."""
        source = """
        proc twice(int x) {
            if (x > 0) {
                x = x + 1;
            }
            if (x > 10) {
                x = x + 2;
            }
        }
        """
        program = parse_program(source)
        cache = SummaryCache()
        solver = ConstraintSolver()
        first = symbolic_execute(program, "twice", solver=solver, summary_cache=cache)
        second = symbolic_execute(program, "twice", solver=solver, summary_cache=cache)
        cold = symbolic_execute(parse_program(source), "twice", solver=ConstraintSolver())
        # The second-guard subtrees observe x, whose value embeds the prefix
        # symbol; only prefix-independent roots (here: the initial state,
        # whose path condition is empty) may replay.
        assert _records(second.summary) == _records(cold.summary)
        assert _records(first.summary) == _records(cold.summary)

    def test_dise_cache_roundtrip_on_update_example(self):
        cache = SummaryCache()
        solver = ConstraintSolver()
        first = run_dise(
            update_base_program(), update_modified_program(), procedure="update",
            solver=solver, summary_cache=cache,
        )
        second = run_dise(
            update_base_program(), update_modified_program(), procedure="update",
            solver=solver, summary_cache=cache,
        )
        cold = run_dise(
            update_base_program(), update_modified_program(), procedure="update",
            solver=ConstraintSolver(),
        )
        assert _distinct(first.execution.summary) == _distinct(cold.execution.summary)
        assert _distinct(second.execution.summary) == _distinct(cold.execution.summary)
        assert second.execution.statistics.replayed_paths == len(cold.execution.summary)
        assert second.execution.statistics.states_explored == 1

    def test_dise_metrics_report_cache_fields(self):
        cache = SummaryCache()
        result = run_dise(
            update_base_program(), update_modified_program(), procedure="update",
            solver=ConstraintSolver(), summary_cache=cache,
        )
        metrics = result.metrics()
        for key in (
            "summary_cache_hits",
            "summary_cache_misses",
            "summary_cache_stores",
            "summaries_invalidated",
            "replayed_paths",
        ):
            assert key in metrics
        assert metrics["summary_cache_stores"] > 0

    def test_write_coinciding_with_root_value_does_not_poison_replay(self):
        """Regression: a write whose value equals the recording root's value
        leaves no environment delta, so replay under a root with a different
        entry value must be ruled out by the fingerprint (write-only vars
        are pinned even though the subtree never reads them)."""
        template = """
        global int w = {init};
        proc f(int x) {{
            if (x > 0) {{
                w = 5;
            }} else {{
                w = 5;
            }}
        }}
        """
        cache = SummaryCache()
        solver = ConstraintSolver()
        symbolic_execute(
            parse_program(template.format(init=5)), "f", solver=solver, summary_cache=cache
        )
        warm = symbolic_execute(
            parse_program(template.format(init=7)), "f", solver=solver, summary_cache=cache
        )
        cold = symbolic_execute(parse_program(template.format(init=7)), "f")
        assert _records(warm.summary) == _records(cold.summary)
        for record in warm.summary.records:
            assert str(dict(record.final_environment)["w"]) == "5"

    def test_segment_replay_skips_states_on_tail_edit(self):
        """An edit at the exit invalidates every suffix but no upstream segment."""
        base_source = """
        global int out = 0;
        proc tail(int c1, int c2) {
            if (c1 > 0) { out = out + 1; } else { out = out - 1; }
            if (c2 > 0) { out = out + 2; } else { out = out - 2; }
            out = out * 2;
        }
        """
        edited_source = base_source.replace("out * 2", "out * 3")
        cache = SummaryCache()
        solver = ConstraintSolver()
        symbolic_execute(parse_program(base_source), "tail", solver=solver, summary_cache=cache)
        warm = symbolic_execute(
            parse_program(edited_source), "tail", solver=solver, summary_cache=cache
        )
        cold = symbolic_execute(parse_program(edited_source), "tail", solver=ConstraintSolver())
        assert _records(warm.summary) == _records(cold.summary)
        assert warm.statistics.replayed_segments > 0
        assert warm.statistics.states_explored < cold.statistics.states_explored
        assert warm.statistics.solver_queries + warm.statistics.incremental_hits < (
            cold.statistics.solver_queries + cold.statistics.incremental_hits
        )


class TestRegionIndexSharing:
    def test_executor_uses_the_cfgs_own_index(self):
        program = update_modified_program()
        cfg = build_cfg(program, "update")
        index = cfg.regions
        from repro.symexec.engine import SymbolicExecutor

        executor = SymbolicExecutor(
            program, procedure_name="update", summary_cache=SummaryCache()
        )
        assert executor.cfg is cfg
        executor.run()
        assert executor.cfg.regions is index
