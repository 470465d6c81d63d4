"""Tests for the incremental solver context and hash-consed terms."""

import pytest
from hypothesis import example, given, settings

from repro.solver.context import SolverContext
from repro.solver.core import ConstraintSolver
from repro.solver.simplify import simplify
from repro.solver.terms import (
    BinaryTerm,
    IntConst,
    Symbol,
    int_symbol,
    interned_count,
    negate,
    substitute,
)

from tests.solver.test_property_solver import constraint_sets

X = int_symbol("x")
Y = int_symbol("y")


def cmp(op, left, right):
    return BinaryTerm(op, left, right)


class TestInterning:
    def test_intern_is_idempotent(self):
        term = cmp(">", X, IntConst(0))
        assert cmp(">", X, IntConst(0)) is term
        assert substitute(term, {}) is term

    def test_equal_structure_is_one_instance(self):
        term = cmp("<=", X, IntConst(4))
        assert term is cmp("<=", Symbol("x"), IntConst(4))
        assert term == cmp("<=", X, IntConst(4))
        assert term != cmp("<=", X, IntConst(5))

    def test_simplify_returns_canonical_instance(self):
        term = cmp("<", BinaryTerm("+", X, IntConst(0)), IntConst(3))
        assert simplify(term) is simplify(term)
        assert simplify(simplify(term)) is simplify(term)

    def test_simplify_of_equal_terms_is_identical(self):
        left = BinaryTerm("+", X, Y)
        right = BinaryTerm("+", X, Y)
        assert left is right
        assert simplify(left) is simplify(right)

    def test_term_id_is_stable_and_distinct(self):
        a = cmp(">", X, IntConst(0))
        b = cmp(">", X, IntConst(1))
        assert a.term_id == cmp(">", X, IntConst(0)).term_id
        assert a.term_id != b.term_id
        assert hash(a) == a.term_id

    def test_negate_round_trip_is_interned(self):
        term = cmp("<", X, Y)
        assert negate(negate(term)) is term

    def test_interned_count_grows_with_new_terms(self):
        before = interned_count()
        term = cmp("==", int_symbol("fresh_intern_probe"), IntConst(123456))
        assert interned_count() > before
        # Interning is weak: dropping the last reference releases the
        # entries again instead of growing the table forever.
        grown = interned_count()
        del term
        import gc

        gc.collect()
        assert interned_count() < grown


class TestSolverContext:
    def test_empty_context_is_satisfiable(self):
        context = SolverContext()
        assert context.is_satisfiable()
        assert context.constraints() == ()

    def test_push_narrows_domains_incrementally(self):
        context = SolverContext()
        context.push(cmp(">", X, IntConst(0)))
        first = context.current_domains()
        assert first["x"].low == 1
        context.push(cmp("<", X, IntConst(10)))
        second = context.current_domains()
        assert second["x"].low == 1 and second["x"].high == 9

    def test_pop_restores_exact_parent_domains(self):
        context = SolverContext()
        context.push(cmp(">", X, IntConst(0)))
        before = context.current_domains()
        context.push(cmp("<", X, IntConst(5)))
        assert context.current_domains() != before
        context.pop()
        assert context.current_domains() == before

    def test_unsat_detected_by_delta_propagation(self):
        solver = ConstraintSolver()
        context = SolverContext(solver)
        context.push(cmp(">", X, IntConst(0)))
        baseline_queries = solver.statistics.queries
        context.push(cmp("<", X, IntConst(0)))
        assert not context.is_satisfiable()
        # The conflict was found by interval propagation alone.
        assert solver.statistics.queries == baseline_queries
        assert solver.statistics.incremental_hits >= 1

    def test_unsat_prefix_stays_unsat_under_more_pushes(self):
        context = SolverContext()
        context.push(cmp(">", X, IntConst(0)))
        context.push(cmp("<", X, IntConst(0)))
        context.push(cmp("==", Y, IntConst(1)))
        assert not context.is_satisfiable()
        context.pop()
        context.pop()
        assert context.is_satisfiable()

    def test_prefix_reuse_across_sibling_branches(self):
        solver = ConstraintSolver()
        context = SolverContext(solver)
        context.push(cmp(">", X, IntConst(0)))
        context.push(cmp(">", Y, IntConst(0)))
        before = solver.statistics.prefix_reuses
        assert context.assume_is_satisfiable(cmp("==", X, IntConst(1)))
        assert context.assume_is_satisfiable(cmp("==", X, IntConst(2)))
        # Both sibling probes reused the two-constraint prefix.
        assert solver.statistics.prefix_reuses >= before + 2
        assert context.depth == 2

    def test_assume_leaves_stack_unchanged(self):
        context = SolverContext()
        context.push(cmp(">", X, IntConst(0)))
        constraints = context.constraints()
        context.assume(cmp("<", X, IntConst(0)))
        assert context.constraints() == constraints

    def test_model_agrees_with_stateless_solver(self):
        solver = ConstraintSolver()
        context = SolverContext(solver)
        constraints = [cmp(">=", X, IntConst(3)), cmp("<", X, IntConst(9))]
        for constraint in constraints:
            context.push(constraint)
        result = context.check()
        assert result.satisfiable
        assert 3 <= result.model["x"] < 9
        assert solver.is_satisfiable(constraints)

    def test_deferred_disjunction_falls_back_to_complete_solver(self):
        solver = ConstraintSolver()
        context = SolverContext(solver)
        context.push(cmp(">", X, IntConst(6)))
        disjunction = BinaryTerm(
            "||", cmp("==", X, IntConst(5)), cmp("==", X, IntConst(9))
        )
        context.push(disjunction)
        assert context.is_satisfiable()
        assert solver.statistics.context_fallbacks >= 1
        context.pop()
        context.push(cmp("<", X, IntConst(0)))
        # Fast UNSAT path still works with a sibling disjunction popped off.
        assert not context.is_satisfiable()

    def test_pop_on_empty_context_raises(self):
        with pytest.raises(IndexError):
            SolverContext().pop()

    @given(constraint_sets())
    # A two-variable equality the box cannot decide: the model must be the
    # plain solve's {x: 0, y: -5}, not one read off a rewritten system.
    @example([cmp("==", X, Y + 5), cmp("<=", X, IntConst(10))])
    @settings(max_examples=50, deadline=None)
    def test_context_check_matches_plain_solver(self, constraints):
        """Differential: the context's verdict and model equal a plain solve's."""
        plain = ConstraintSolver()
        try:
            expected = plain.check(list(constraints))
        except Exception:
            return  # outside the decidable fragment; context would raise too
        context = SolverContext(ConstraintSolver())
        for term in constraints:
            context.push(term)
        result = context.check()
        assert (result.satisfiable, result.model) == (expected.satisfiable, expected.model)


class TestEngineIntegration:
    def test_testx_branch_checks_are_incremental_hits(self):
        from repro.artifacts.simple import testx_program
        from repro.symexec.engine import symbolic_execute

        solver = ConstraintSolver()
        result = symbolic_execute(testx_program(), "testX", solver=solver)
        assert len(result.path_conditions) == 2
        # Both branch feasibility checks (x > 0 and x <= 0) are single-atom
        # interval queries the incremental layer answers without a full solve.
        assert result.statistics.incremental_hits >= 2
        assert solver.statistics.incremental_hits >= 2

    def test_update_run_reports_prefix_reuse(self):
        from repro.artifacts.simple import update_modified_program
        from repro.symexec.engine import symbolic_execute

        solver = ConstraintSolver()
        result = symbolic_execute(update_modified_program(), "update", solver=solver)
        assert len(result.path_conditions) == 24
        assert result.statistics.prefix_reuses > 0
        ratio = solver.statistics.prefix_reuses / max(
            1, solver.statistics.prefix_reuses + solver.statistics.queries
        )
        assert 0 < ratio <= 1

    def test_dise_statistics_expose_incremental_counters(self):
        from repro.artifacts.simple import update_base_program, update_modified_program
        from repro.core.dise import run_dise

        solver = ConstraintSolver()
        result = run_dise(
            update_base_program(),
            update_modified_program(),
            procedure="update",
            solver=solver,
        )
        assert len(result.path_conditions) == 8
        stats = solver.statistics.as_dict()
        assert stats["prefix_reuses"] > 0
        assert stats["incremental_hits"] > 0
        assert stats["interned_terms"] > 0
