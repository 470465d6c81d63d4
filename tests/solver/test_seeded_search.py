"""The complete solver searching a context's box.

When a context's narrowed box leaves linear atoms undecided,
``SolverContext.check`` hands the undecided atoms and the box to
``ConstraintSolver.check``, which searches from there instead of
re-linearising the prefix and searching the full box.  Generated test
inputs are read off the models, so the seeded search must return the same
verdict and the same model as a from-scratch check.  These cases pin the
rules; ``tests/integration/test_cold_path_differential.py`` checks every
seeded query the artifact histories send.
"""

from repro.solver.context import SolverContext
from repro.solver.core import ConstraintSolver
from repro.solver.terms import BinaryTerm, IntConst, int_symbol

X = int_symbol("x")
Y = int_symbol("y")
Z = int_symbol("z")


def cmp(op, left, right):
    return BinaryTerm(op, left, right)


def _from_scratch(constraints):
    return ConstraintSolver().check(list(constraints))


def test_model_is_the_box_point_overlaid_with_the_search():
    solver = ConstraintSolver()
    context = SolverContext(solver)
    constraints = [
        cmp(">=", X, IntConst(3)),
        cmp("<=", Y, IntConst(-2)),
        cmp("==", X + Z, IntConst(7)),
    ]
    for constraint in constraints:
        context.push(constraint)
    result = context.check()
    assert solver.statistics.queries == 1
    assert solver.statistics.context_fallbacks == 0
    # y is settled by the box; x and z come from the search.
    assert result.model["y"] == -2
    assert result.model["x"] + result.model["z"] == 7
    assert result.model == _from_scratch(constraints).model


def test_unsat_inside_the_box():
    solver = ConstraintSolver()
    context = SolverContext(solver)
    # x and y lie in {0, 1}, so x + y lies in {0, 1, 2}: only the search
    # over the box's disequality splits shows that.
    for constraint in (
        cmp(">=", X, IntConst(0)),
        cmp("<=", X, IntConst(1)),
        cmp(">=", Y, IntConst(0)),
        cmp("<=", Y, IntConst(1)),
        cmp("!=", X + Y, IntConst(0)),
        cmp("!=", X + Y, IntConst(1)),
        cmp("!=", X + Y, IntConst(2)),
    ):
        context.push(constraint)
    assert not context.check().satisfiable
    assert not _from_scratch(context.constraints()).satisfiable
    assert solver.statistics.queries == 1
    assert solver.statistics.context_fallbacks == 0


def test_disequality_split_inside_the_box():
    constraints = [
        cmp(">=", X, IntConst(0)),
        cmp("<=", X, IntConst(4)),
        cmp("!=", X + Y, IntConst(0)),
    ]
    context = SolverContext()
    for constraint in constraints:
        context.push(constraint)
    result = context.check()
    assert result.satisfiable
    assert result.model == _from_scratch(constraints).model


def test_seeded_queries_share_the_result_cache():
    solver = ConstraintSolver()
    context = SolverContext(solver)
    context.push(cmp(">", X + Y, IntConst(10)))
    first = context.check()
    context.pop()
    context.push(cmp(">", X + Y, IntConst(10)))
    assert context.check() is first
    assert solver.statistics.queries == 2
    assert solver.statistics.cache_hits == 1


def test_probes_decide_like_check_without_a_model():
    context = SolverContext()
    context.push(cmp(">", X, IntConst(2)))
    assert context.check().model == {"x": 3}
    assert context.check(with_model=False).model is None
    assert context.is_satisfiable()
    assert context.assume_is_satisfiable(cmp("<", X, IntConst(9)))
    assert context.assume(cmp("<", X, IntConst(9))).model == {"x": 3}
    assert not context.assume_is_satisfiable(cmp("<", X, IntConst(0)))
