"""Tests for the incremental solver context and hash-consed terms."""

import random

import pytest
from hypothesis import example, given, settings

import repro.solver.context as context_module
from repro.solver.context import SolverContext
from repro.solver.core import ConstraintSolver
from repro.solver.intervals import Interval
from repro.solver.linear import linearize_comparison
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
Z = int_symbol("z")
W = int_symbol("w")


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


def box_verdict(comparisons, domains):
    """The box rule's verdict on ``comparisons`` over hand-built ``domains``."""
    atoms = [linearize_comparison(c.op, c.left, c.right) for c in comparisons]
    boxes = {name: Interval(low, high) for name, (low, high) in domains.items()}
    return context_module._independent_verdict(atoms, boxes)


def random_comparison(rng):
    expr = IntConst(rng.randint(-4, 4))
    for variable in rng.sample((X, Y, Z, W), rng.randint(1, 2)):
        expr = expr + IntConst(rng.choice((-3, -2, -1, 1, 2, 3))) * variable
    return cmp(rng.choice(("<=", "<", ">=", ">", "!=", "==")), expr, IntConst(rng.randint(-6, 6)))


class TestBoxVerdicts:
    """Verdict-only queries the box decides without the complete solver."""

    @pytest.mark.parametrize(
        "comparison, domains, expected",
        [
            # ``<=``: satisfiable iff the expression's minimum over the box is <= 0.
            (cmp("<=", X + Y, IntConst(5)), {"x": (2, 3), "y": (2, 3)}, True),
            (cmp("<=", X + Y, IntConst(5)), {"x": (3, 4), "y": (3, 4)}, False),
            (cmp("<=", X - Y, IntConst(0)), {"x": (5, 6), "y": (0, 5)}, True),
            (cmp("<=", X - Y, IntConst(0)), {"x": (5, 6), "y": (0, 4)}, False),
            # ``!=``: satisfiable unless the expression is the constant 0.
            (cmp("!=", X + Y, IntConst(3)), {"x": (1, 1), "y": (2, 3)}, True),
            (cmp("!=", X + Y, IntConst(3)), {"x": (1, 1), "y": (2, 2)}, False),
            (cmp("!=", X + X, IntConst(1)), {"x": (0, 1)}, True),
        ],
    )
    def test_an_atom_is_decided_by_its_bounds(self, comparison, domains, expected):
        assert box_verdict([comparison], domains) is expected
        bounds = [cmp(op, int_symbol(name), IntConst(limit))
                  for name, (low, high) in domains.items()
                  for op, limit in ((">=", low), ("<=", high))]
        assert ConstraintSolver().check(bounds + [comparison]).satisfiable is expected

    def test_independent_atoms_are_jointly_satisfiable_iff_each_is(self):
        domains = {"x": (0, 2), "y": (0, 2), "z": (0, 2), "w": (0, 2)}
        satisfiable = cmp("<=", X + Y, IntConst(1))
        assert box_verdict([satisfiable, cmp("!=", Z - W, IntConst(0))], domains) is True
        assert box_verdict([satisfiable, cmp(">", Z + W, IntConst(4))], domains) is False

    def test_shared_variables_and_equalities_are_not_decided(self):
        domains = {"x": (0, 2), "y": (0, 2)}
        coupled = [cmp("<=", X + Y, IntConst(1)), cmp(">=", X - Y, IntConst(2))]
        assert box_verdict(coupled, domains) is None
        assert box_verdict([cmp("==", X + X, Y + Y + IntConst(1))], domains) is None

    def test_independent_undecided_atoms_need_no_complete_query(self):
        solver = ConstraintSolver()
        context = SolverContext(solver)
        context.push(cmp(">", X + Y, IntConst(10)))
        assert context.is_satisfiable()
        assert context.assume_is_satisfiable(cmp("<", Z - W, IntConst(3)))
        assert solver.statistics.queries == 0
        assert solver.statistics.incremental_hits == 2

    def test_coupled_atoms_reach_the_complete_solver(self):
        solver = ConstraintSolver()
        context = SolverContext(solver)
        context.push(cmp(">", X + Y, IntConst(10)))
        assert context.assume_is_satisfiable(cmp(">", X - Y, IntConst(2)))
        assert solver.statistics.queries == 1

    def test_multi_variable_equalities_reach_the_complete_solver(self):
        solver = ConstraintSolver()
        context = SolverContext(solver)
        for bound in (cmp(">=", X, IntConst(0)), cmp("<=", X, IntConst(3)),
                      cmp(">=", Y, IntConst(0)), cmp("<=", Y, IntConst(3))):
            context.push(bound)
        assert context.assume_is_satisfiable(cmp("==", X, Y + IntConst(2)))
        assert solver.statistics.queries == 1

    def test_a_model_query_reaches_the_complete_solver(self):
        solver = ConstraintSolver()
        context = SolverContext(solver)
        constraint = cmp(">", X + Y, IntConst(10))
        context.push(constraint)
        result = context.check()
        assert solver.statistics.queries == 1
        assert result.model == ConstraintSolver().check([constraint]).model

    def test_box_verdicts_match_from_scratch_checks_over_small_boxes(self):
        rng = random.Random(0)
        decided = {True: 0, False: 0}
        for _ in range(600):
            domains, bounds = {}, []
            for variable in (X, Y, Z, W):
                low = rng.randint(-4, 3)
                high = rng.randint(low, 4)
                domains[variable.name] = (low, high)
                bounds += [cmp(">=", variable, IntConst(low)), cmp("<=", variable, IntConst(high))]
            comparisons = [random_comparison(rng) for _ in range(rng.randint(1, 3))]
            verdict = box_verdict(comparisons, domains)
            if verdict is None:
                continue
            assert verdict == ConstraintSolver().check(bounds + comparisons).satisfiable, (
                comparisons, domains,
            )
            decided[verdict] += 1
        assert decided[True] > 50 and decided[False] > 50

    def test_context_verdicts_match_from_scratch_checks(self):
        rng = random.Random(1)
        for _ in range(300):
            stack = [random_comparison(rng) for _ in range(rng.randint(1, 4))]
            probe = random_comparison(rng)
            context = SolverContext(ConstraintSolver(bound=8))
            for constraint in stack:
                context.push(constraint)
            plain = ConstraintSolver(bound=8)
            assert context.is_satisfiable() == plain.check(stack).satisfiable, stack
            assert context.assume_is_satisfiable(probe) == plain.check(stack + [probe]).satisfiable


class TestProbeFrames:
    """A probe is a child frame of the top, decided in place."""

    def test_a_probe_leaves_the_stack_and_the_index_unchanged(self):
        context = SolverContext()
        context.push(cmp(">", X, IntConst(0)))
        context.push(cmp("<", Y, X))
        index = {name: list(atoms) for name, atoms in context._atoms_by_var.items()}
        entries = context._indexed_entries
        probes = (
            cmp(">", Y, IntConst(3)),  # narrows y, which ``y < x`` reads: the worklist
            cmp(">", Z, IntConst(0)),  # a variable no active atom reads
            cmp(">=", X + Z, IntConst(2)),  # two variables: the worklist
        )
        for probe in probes:
            assert context.assume_is_satisfiable(probe)
            assert len(context) == 2
            assert context._atoms_by_var == index
            assert context._indexed_entries == entries

    def test_a_push_reuses_the_probed_frame_and_indexes_its_atoms(self):
        solver = ConstraintSolver()
        context = SolverContext(solver)
        context.push(cmp(">", X, IntConst(0)))
        branch = cmp("<", Y, X)
        assert context.assume_is_satisfiable(branch)
        probed = context._frames[-1].children[simplify(branch).term_id]
        assert "y" not in context._atoms_by_var
        rounds = solver.statistics.worklist_rounds
        context.push(branch)
        assert context._frames[-1] is probed
        assert solver.statistics.worklist_rounds == rounds
        assert context._atoms_by_var["y"] == list(probed.atoms)
        assert context._indexed_entries == 3


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
