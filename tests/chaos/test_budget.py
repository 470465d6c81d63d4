"""Deadline-budgeted degradation: never a hang, never a wrong answer.

An exhausted :class:`~repro.solver.core.DeadlineBudget` flips the engine
into conservative mode -- branch feasibility the solver can no longer
decide is answered "explore both sides", lookahead reachability "all
targets reachable" -- and the run completes with an explicit
``completeness == "degraded"`` flag.  Conservative means *over*-inclusive:
the degraded path-condition set is a superset of the clean run's, never a
subset, so no real behaviour is lost.
"""

import pytest

from repro.artifacts import asw_artifact
from repro.artifacts.simple import update_modified_program
from repro.core.dise import DiSE
from repro.lang.parser import parse_program
from repro.solver.context import SolverContext
from repro.solver.core import BudgetExhausted, ConstraintSolver, DeadlineBudget
from repro.solver.terms import BinaryTerm, IntConst, int_symbol
from repro.symexec.engine import symbolic_execute
from repro.symexec.summary_cache import SummaryCache


def _pcs(summary):
    return {str(c) for c in summary.distinct_path_conditions()}


class TestDeadlineBudget:
    def test_zero_budget_is_immediately_exhausted(self):
        budget = DeadlineBudget(0)
        assert budget.expired()
        with pytest.raises(BudgetExhausted):
            budget.charge()
        assert budget.exhausted
        assert budget.rejections == 1

    def test_budget_exhausted_is_a_solver_error(self):
        """Existing conservative SolverError handling (lookahead bailouts)
        must also cover budget refusals."""
        from repro.solver.core import SolverError

        assert issubclass(BudgetExhausted, SolverError)

    def test_generous_budget_never_trips(self):
        budget = DeadlineBudget(3600)
        assert not budget.expired()
        budget.charge()
        assert not budget.exhausted
        assert budget.remaining() > 0


class TestDegradedExecution:
    def test_exhausted_budget_completes_conservatively(self):
        program = update_modified_program()
        clean = symbolic_execute(program, procedure_name="update")
        solver = ConstraintSolver()
        solver.deadline = DeadlineBudget(0)
        degraded = symbolic_execute(program, procedure_name="update", solver=solver)
        assert degraded.statistics.completeness == "degraded"
        assert degraded.statistics.degraded_decisions > 0
        assert degraded.statistics.deadline_exhausted == 1
        # Conservative, not wrong: every real path is still present.
        assert _pcs(clean.summary) <= _pcs(degraded.summary)

    def test_clean_run_reports_complete(self):
        program = update_modified_program()
        result = symbolic_execute(program, procedure_name="update")
        assert result.statistics.completeness == "complete"
        assert result.statistics.degraded_decisions == 0
        assert result.statistics.deadline_exhausted == 0

    def test_generous_budget_is_exactly_the_clean_run(self):
        program = update_modified_program()
        clean = symbolic_execute(program, procedure_name="update")
        budgeted = symbolic_execute(
            program, procedure_name="update", deadline=DeadlineBudget(3600)
        )
        assert budgeted.statistics.completeness == "complete"
        assert _pcs(budgeted.summary) == _pcs(clean.summary)

    def test_degraded_runs_store_no_summaries(self):
        """Degraded exploration is wall-clock-dependent; caching it would
        make later replays nondeterministic.  Nothing may enter the cache."""
        program = update_modified_program()
        cache = SummaryCache()
        result = symbolic_execute(
            program,
            procedure_name="update",
            summary_cache=cache,
            deadline=DeadlineBudget(0),
        )
        assert result.statistics.completeness == "degraded"
        assert len(cache) == 0

    def test_seeded_search_goes_through_deadline_admission(self):
        """A branch the context's box cannot decide -- two undecided atoms
        that share a variable -- is searched by ``ConstraintSolver.check``
        from that box, and that search is admitted against the deadline
        like any other complete query."""
        program = parse_program(
            "global int r = 0;\n"
            "proc p(int x, int y) {\n"
            "    if (x + y > 10) {\n"
            "        if (x - y > 2) { r = 1; } else { r = 2; }\n"
            "    } else { r = 3; }\n"
            "}\n"
        )
        clean_solver = ConstraintSolver()
        clean = symbolic_execute(program, procedure_name="p", solver=clean_solver)
        assert clean.statistics.completeness == "complete"
        assert clean_solver.statistics.queries > 0
        assert clean_solver.statistics.context_fallbacks == 0

        context = SolverContext(ConstraintSolver(deadline=DeadlineBudget(0)))
        context.push(BinaryTerm(">", int_symbol("x") + int_symbol("y"), IntConst(10)))
        with pytest.raises(BudgetExhausted):
            context.check()

        solver = ConstraintSolver(deadline=DeadlineBudget(0))
        degraded = symbolic_execute(program, procedure_name="p", solver=solver)
        assert degraded.statistics.completeness == "degraded"
        assert degraded.statistics.degraded_decisions > 0
        assert solver.deadline.rejections > 0
        assert _pcs(clean.summary) <= _pcs(degraded.summary)

    def test_a_run_past_its_deadline_stores_nothing_without_solver_queries(self):
        """Every branch here is one variable, so the context's box answers
        each probe and no complete query ever sees the spent budget.  The
        run is still past its deadline: it stores no summary and says so."""
        program = parse_program(
            "global int r = 0;\n"
            "proc p(int x, int y) {\n"
            "    if (x > 0) { r = 1; } else { r = 2; }\n"
            "    if (y > 0) { r = r + 10; } else { r = r + 20; }\n"
            "}\n"
        )
        clean_cache = SummaryCache()
        symbolic_execute(program, procedure_name="p", summary_cache=clean_cache)
        assert len(clean_cache) > 0

        solver = ConstraintSolver()
        cache = SummaryCache()
        result = symbolic_execute(
            program,
            procedure_name="p",
            solver=solver,
            summary_cache=cache,
            deadline=DeadlineBudget(0),
        )
        assert solver.statistics.queries == 0
        assert result.statistics.degraded_decisions == 0
        assert result.statistics.deadline_exhausted == 1
        assert result.statistics.completeness == "degraded"
        assert len(cache) == 0
        assert len(result.path_conditions) == 4

    def test_completeness_surfaces_in_as_dict(self):
        program = update_modified_program()
        result = symbolic_execute(
            program, procedure_name="update", deadline=DeadlineBudget(0)
        )
        stats = result.statistics.as_dict()
        assert stats["degraded_decisions"] > 0
        assert stats["deadline_exhausted"] == 1


class TestDegradedDiSE:
    def test_dise_with_zero_budget_completes_and_flags(self):
        # The box decides every ASW branch on its own.  A guard over
        # ``alt + thresh`` under ``alt < thresh`` leaves two undecided atoms
        # that share variables, which only the complete solver decides.
        artifact = asw_artifact()

        def coupled(source):
            return parse_program(
                source.replace(
                    "alarm = 1;", "if (alt + thresh > 0) { alarm = 1; } else { alarm = 5; }"
                )
            )

        base = coupled(artifact.base_source)
        modified = coupled(artifact.version_source("v1"))
        clean = DiSE(base, modified, procedure_name=artifact.procedure_name).run()
        degraded = DiSE(
            base,
            modified,
            procedure_name=artifact.procedure_name,
            deadline=DeadlineBudget(0),
        ).run()
        metrics = degraded.metrics()
        assert metrics["deadline_exhausted"] == 1
        assert metrics["degraded_decisions"] > 0
        # Over-approximation in both phases, wrong answer in neither.
        assert _pcs(clean.execution.summary) <= _pcs(degraded.execution.summary)

    def test_dise_clean_metrics_report_complete(self):
        artifact = asw_artifact()
        base = artifact.base_program()
        modified = artifact.version_program("v1")
        metrics = DiSE(
            base, modified, procedure_name=artifact.procedure_name
        ).run().metrics()
        assert metrics["deadline_exhausted"] == 0
        assert metrics["degraded_decisions"] == 0
