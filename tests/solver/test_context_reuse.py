"""Frame reuse, the linearisation memo and per-frame undecided atoms.

A :class:`~repro.solver.context.SolverContext` keeps each frame it built as a
child of the frame below it, so re-pushing a constraint on the same parent
(an ``assume`` probe followed by descending into that branch) reuses the
frame instead of propagating again.  These tests pin that every reused or
memoised answer equals the one a context pushing the same stack from empty
gives (and agrees with the plain complete solver), and that the reuse
actually happens and stays bounded.
"""

from hypothesis import given, settings, strategies as st

import repro.solver.context as context_module
from repro.solver.context import SolverContext
from repro.solver.core import ConstraintSolver
from repro.solver.terms import BinaryTerm, IntConst, bool_symbol, int_symbol, negate

X = int_symbol("x")
Y = int_symbol("y")
Z = int_symbol("z")


def cmp(op, left, right):
    return BinaryTerm(op, left, right)


#: A small pool, so random sequences push the same constraint on the same
#: parent often: single-variable bounds, coupled atoms, a two-variable unit
#: equality (the substitution path), a disjunction and a boolean equality
#: (both deferred), a boolean symbol and an outright contradiction.
POOL = (
    cmp(">", X, IntConst(0)),
    cmp("<=", X, IntConst(5)),
    cmp("<", Y, X),
    cmp(">=", BinaryTerm("+", Y, Z), IntConst(7)),
    cmp("!=", Z, IntConst(3)),
    cmp("==", BinaryTerm("-", X, Y), IntConst(1)),
    cmp("<", BinaryTerm("*", IntConst(2), Z), BinaryTerm("-", Y, IntConst(4))),
    cmp("||", cmp("<", X, IntConst(-2)), cmp(">", Y, IntConst(9))),
    cmp("==", bool_symbol("b"), bool_symbol("c")),
    cmp("==", Z, IntConst(0)),
    bool_symbol("b"),
    cmp("<", X, X),
)

constraints = st.sampled_from(POOL)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), constraints),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("assume"), constraints),
        st.tuples(
            st.just("sync"),
            st.tuples(st.integers(min_value=0, max_value=6), st.lists(constraints, max_size=2)),
        ),
    ),
    max_size=25,
)


def observe(context):
    result = context.check()
    return result.satisfiable, result.model, context.current_domains()


def satisfies(model, stack):
    env = {name: model.get(name, 0) for name in "xyz"}
    env.update((name, bool(model.get(name, 0))) for name in "bc")
    return all(bool(constraint.evaluate(env)) for constraint in stack)


def from_empty(stack):
    fresh = SolverContext(ConstraintSolver(bound=64))
    for constraint in stack:
        fresh.push(constraint)
    return fresh


def reachable_frames(context):
    count = 0
    work = list(context._root.children.values())
    while work:
        frame = work.pop()
        count += 1
        work.extend(frame.children.values())
    return count


class TestReuseMatchesRebuild:
    @given(operations)
    @settings(max_examples=300, deadline=None)
    def test_every_answer_equals_a_context_rebuilt_from_empty(self, ops):
        context = SolverContext(ConstraintSolver(bound=64))
        stack = []
        for kind, argument in ops:
            if kind == "push":
                context.push(argument)
                stack.append(argument)
            elif kind == "pop":
                if not stack:
                    continue
                context.pop()
                stack.pop()
            elif kind == "assume":
                probe = context.assume(argument)
                expected = from_empty(stack + [argument]).check()
                assert (probe.satisfiable, probe.model) == (expected.satisfiable, expected.model)
            else:
                keep, suffix = argument
                stack = stack[:keep] + suffix
                context.sync_to(stack)
            assert len(context) == len(stack)
            observed = observe(context)
            assert observed == observe(from_empty(stack))
            # Both sides above run the same code; check them independently too.
            satisfiable, model, _ = observed
            assert satisfiable == ConstraintSolver(bound=64).check(stack).satisfiable
            assert not satisfiable or satisfies(model, stack)


class TestReuseHappens:
    def test_descending_into_an_assumed_constraint_propagates_nothing(self):
        solver = ConstraintSolver(bound=64)
        context = SolverContext(solver)
        prefix = [cmp(">", X, IntConst(0)), cmp("<=", Y, IntConst(5))]
        context.sync_to(prefix)
        branch = cmp("<", Y, X)
        before_probe = solver.statistics.worklist_rounds
        assert context.assume_is_satisfiable(branch)
        assert context.assume_is_satisfiable(negate(branch))
        assert solver.statistics.worklist_rounds > before_probe
        before_descent = solver.statistics.worklist_rounds
        context.sync_to(prefix + [branch])
        assert solver.statistics.worklist_rounds == before_descent
        context.sync_to(prefix + [negate(branch)])
        assert solver.statistics.worklist_rounds == before_descent

    def test_a_constraint_pushed_twice_is_linearised_once(self, monkeypatch):
        calls = []
        original = context_module._linearize_delta

        def counting(term):
            calls.append(term)
            return original(term)

        monkeypatch.setattr(context_module, "_linearize_delta", counting)
        context = SolverContext(ConstraintSolver(bound=64))
        constraint = cmp("<", Y, X)
        context.push(cmp(">", X, IntConst(0)))
        context.push(constraint)
        context.push(cmp("<=", Y, IntConst(5)))
        context.push(constraint)
        assert len(calls) == 3

    def test_cached_frames_stay_linear_in_depth_over_a_dfs(self):
        depth = 7
        levels = [cmp(">", int_symbol(f"v{level}"), IntConst(level)) for level in range(depth)]
        context = SolverContext(ConstraintSolver(bound=64))
        high_water = 0

        def explore(prefix):
            nonlocal high_water
            context.sync_to(prefix)
            if len(prefix) == depth:
                high_water = max(high_water, reachable_frames(context))
                return
            branch = levels[len(prefix)]
            for side in (branch, negate(branch)):
                assert context.assume_is_satisfiable(side)
            for side in (branch, negate(branch)):
                explore(prefix + [side])

        explore([])
        # Each stack level keeps only its two branch frames: 2**(depth + 1)
        # frames were built, but at most about 2 * depth are alive at once.
        assert 0 < high_water <= 3 * depth
