"""Tests for the constraint solver facade."""

import pytest

from repro.solver.core import ConstraintSolver, SolverError
from repro.solver.terms import (
    FALSE,
    TRUE,
    BinaryTerm,
    IntConst,
    NotTerm,
    bool_symbol,
    int_symbol,
    negate,
)

X = int_symbol("x")
Y = int_symbol("y")
Z = int_symbol("z")
B = bool_symbol("b")
C = bool_symbol("c")


def cmp(op, left, right):
    return BinaryTerm(op, left, right)


class TestSatisfiability:
    def test_empty_constraint_set_is_sat(self, solver):
        assert solver.is_satisfiable([])

    def test_true_and_false_constants(self, solver):
        assert solver.is_satisfiable([TRUE])
        assert not solver.is_satisfiable([FALSE])

    def test_single_comparison(self, solver):
        assert solver.is_satisfiable([cmp(">", X, IntConst(0))])

    def test_contradictory_comparisons(self, solver):
        assert not solver.is_satisfiable(
            [cmp(">", X, IntConst(0)), cmp("<", X, IntConst(0))]
        )

    def test_boundary_contradiction(self, solver):
        assert not solver.is_satisfiable(
            [cmp(">=", X, IntConst(5)), cmp("<=", X, IntConst(4))]
        )

    def test_equalities_chain(self, solver):
        constraints = [
            cmp("==", X, BinaryTerm("+", Y, IntConst(1))),
            cmp("==", Y, IntConst(4)),
            cmp("==", X, IntConst(5)),
        ]
        assert solver.is_satisfiable(constraints)

    def test_inconsistent_equalities(self, solver):
        constraints = [
            cmp("==", X, BinaryTerm("+", Y, IntConst(1))),
            cmp("==", Y, IntConst(4)),
            cmp("==", X, IntConst(6)),
        ]
        assert not solver.is_satisfiable(constraints)

    def test_disequality_split(self, solver):
        assert solver.is_satisfiable([cmp("!=", X, IntConst(0))])
        assert not solver.is_satisfiable(
            [cmp("!=", X, IntConst(0)), cmp("==", X, IntConst(0))]
        )

    def test_three_variable_system(self, solver):
        constraints = [
            cmp("==", BinaryTerm("+", X, Y), IntConst(10)),
            cmp("==", BinaryTerm("-", X, Y), IntConst(4)),
            cmp("==", Z, BinaryTerm("+", X, Y)),
        ]
        model = solver.model(constraints)
        assert model is not None
        assert model["x"] == 7 and model["y"] == 3 and model["z"] == 10

    @pytest.mark.parametrize(
        "atom, opposite",
        [
            (cmp("<", BinaryTerm("+", X, Y), IntConst(0)), cmp(">=", BinaryTerm("+", X, Y), IntConst(0))),
            (cmp("==", BinaryTerm("+", X, Y), IntConst(0)), cmp("!=", BinaryTerm("+", X, Y), IntConst(0))),
        ],
    )
    def test_complementary_bounds_are_refuted_without_search(self, solver, atom, opposite):
        assert not solver.is_satisfiable([atom, opposite])
        assert solver.statistics.branch_steps == 0

    def test_no_integer_solution_between_bounds(self, solver):
        # 2x == 5 has no integer solution
        assert not solver.is_satisfiable(
            [cmp("==", BinaryTerm("*", IntConst(2), X), IntConst(5))]
        )

    def test_paper_update_constraints(self, solver):
        """The first DiSE path condition from the motivating example is satisfiable."""
        pedal_pos = int_symbol("PedalPos")
        pedal_cmd = int_symbol("PedalCmd")
        constraints = [
            cmp("<=", pedal_pos, IntConst(0)),
            cmp("==", BinaryTerm("+", BinaryTerm("+", pedal_cmd, IntConst(1)), IntConst(1)), IntConst(2)),
        ]
        model = solver.model(constraints)
        assert model is not None
        assert model["PedalPos"] <= 0
        assert model["PedalCmd"] == 0


class TestBooleanStructure:
    def test_bool_symbol_constraint(self, solver):
        model = solver.model([B])
        assert model == {"b": 1}

    def test_negated_bool_symbol(self, solver):
        model = solver.model([NotTerm(B)])
        assert model == {"b": 0}

    def test_bool_contradiction(self, solver):
        assert not solver.is_satisfiable([B, NotTerm(B)])

    def test_conjunction_flattening(self, solver):
        term = BinaryTerm("&&", cmp(">", X, IntConst(0)), cmp("<", X, IntConst(2)))
        model = solver.model([term])
        assert model["x"] == 1

    def test_disjunction_case_split(self, solver):
        term = BinaryTerm("||", cmp("==", X, IntConst(5)), cmp("==", X, IntConst(9)))
        assert solver.is_satisfiable([term, cmp(">", X, IntConst(6))])
        assert not solver.is_satisfiable([term, cmp(">", X, IntConst(10))])

    def test_negated_conjunction(self, solver):
        term = negate(BinaryTerm("&&", B, cmp(">", X, IntConst(0))))
        assert solver.is_satisfiable([term, B])
        assert not solver.is_satisfiable([term, B, cmp(">", X, IntConst(0))])

    def test_bool_equality_comparison(self, solver):
        assert solver.is_satisfiable([cmp("==", B, C), B, C])
        assert not solver.is_satisfiable([cmp("==", B, C), B, NotTerm(C)])
        assert solver.is_satisfiable([cmp("!=", B, C), B, NotTerm(C)])

    def test_nonlinear_constraint_rejected(self, solver):
        with pytest.raises(SolverError):
            solver.check([cmp("==", BinaryTerm("*", X, Y), IntConst(6))])


class TestModels:
    def test_model_satisfies_constraints(self, solver):
        constraints = [
            cmp(">=", X, IntConst(3)),
            cmp("<", X, IntConst(9)),
            cmp("==", Y, BinaryTerm("*", IntConst(2), X)),
        ]
        model = solver.model(constraints)
        assert 3 <= model["x"] < 9
        assert model["y"] == 2 * model["x"]

    def test_unsat_model_is_none(self, solver):
        assert solver.model([FALSE]) is None

    def test_model_for_unconstrained_query(self, solver):
        assert solver.model([]) == {}


class TestStatisticsAndCache:
    def test_query_counting(self, solver):
        solver.is_satisfiable([cmp(">", X, IntConst(0))])
        solver.is_satisfiable([cmp(">", X, IntConst(1))])
        assert solver.statistics.queries == 2

    def test_cache_hit_on_repeated_query(self, solver):
        constraints = [cmp(">", X, IntConst(0)), cmp("<", X, IntConst(5))]
        solver.is_satisfiable(constraints)
        solver.is_satisfiable(list(constraints))
        assert solver.statistics.cache_hits == 1

    def test_cache_is_order_insensitive(self, solver):
        a = [cmp(">", X, IntConst(0)), cmp("<", Y, IntConst(5))]
        solver.is_satisfiable(a)
        solver.is_satisfiable(list(reversed(a)))
        assert solver.statistics.cache_hits == 1

    def test_clear_cache(self, solver):
        constraints = [cmp(">", X, IntConst(0))]
        solver.is_satisfiable(constraints)
        solver.clear_cache()
        solver.is_satisfiable(constraints)
        assert solver.statistics.cache_hits == 0

    def test_sat_unsat_counters(self, solver):
        solver.is_satisfiable([TRUE])
        solver.is_satisfiable([FALSE])
        assert solver.statistics.sat_results == 1
        assert solver.statistics.unsat_results == 1

    def test_as_dict_contains_all_counters(self, solver):
        data = solver.statistics.as_dict()
        assert set(data) >= {"queries", "cache_hits", "sat_results", "unsat_results"}

    def test_step_limit_applies_per_query(self):
        """The limit bounds each ``check``; the counter keeps the lifetime total."""
        alt, thresh, f = int_symbol("alt"), int_symbol("thresh"), int_symbol("f")

        def query(k):
            return [cmp("<", alt, thresh), cmp(">=", f, IntConst(0)), cmp("!=", f, IntConst(k))]

        probe = ConstraintSolver()
        assert probe.is_satisfiable(query(1))
        per_query = probe.statistics.branch_steps
        assert per_query > 0
        solver = ConstraintSolver(max_branch_steps=per_query)
        for k in range(1, 11):
            assert solver.is_satisfiable(query(k))
        assert solver.statistics.branch_steps == 10 * per_query
        with pytest.raises(SolverError, match="step limit"):
            ConstraintSolver(max_branch_steps=per_query - 1).check(query(1))
