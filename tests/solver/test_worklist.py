"""Property tests for the worklist (delta) propagation.

The incremental context narrows interval domains with a variable-indexed
worklist seeded only by each push's delta atoms.  Bounds-consistency
narrowing operators are monotone, so chaotic iteration must converge to the
same fixed point as re-running whole-set propagation -- these tests pin that
equivalence on seeded random atom sets, both for the raw
:func:`~repro.solver.intervals.propagate_delta` helper and for the fixpoints
a :class:`~repro.solver.context.SolverContext` accumulates push by push.
"""

import functools
import random

from hypothesis import given, settings, strategies as st

from repro.solver.context import SolverContext, _linearize_delta
from repro.solver.core import ConstraintSolver
from repro.solver.intervals import (
    Interval,
    atom_definitely_satisfied,
    initial_domains,
    propagate,
    propagate_delta,
)
from repro.solver.linear import EQ, LE, NE, LinearAtom, LinearExpr
from repro.solver.simplify import simplify
from repro.solver.terms import BinaryTerm, IntConst, int_symbol

VARIABLES = ("x", "y", "z")
OPS = (LE, EQ, NE)


def random_atoms(seed: int, count: int) -> list:
    rng = random.Random(seed)
    atoms = []
    for _ in range(count):
        coeffs = {
            name: rng.randint(-3, 3)
            for name in rng.sample(VARIABLES, rng.randint(1, len(VARIABLES)))
        }
        expr = LinearExpr.from_dict(coeffs, rng.randint(-8, 8))
        if expr.is_constant():
            continue
        atoms.append(LinearAtom(expr, rng.choice(OPS)))
    return atoms


def index_atoms(atoms) -> dict:
    by_var = {}
    for atom in atoms:
        for name in atom.variables():
            by_var.setdefault(name, []).append(atom)
    return by_var


class TestPropagateDeltaMatchesWholeSet:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_full_seed_equals_batch_propagate(self, seed):
        atoms = random_atoms(seed, count=5)
        domains = initial_domains(VARIABLES, bound=32)
        batch = propagate(list(atoms), dict(domains))
        delta_result, steps = propagate_delta(index_atoms(atoms), atoms, dict(domains))
        if batch is None:
            assert delta_result is None
        else:
            assert delta_result == batch
            # Every delta atom is examined at least once on conflict-free runs.
            assert steps >= len(atoms)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_incremental_prefix_plus_delta_reaches_batch_fixpoint(self, seed):
        atoms = random_atoms(seed, count=6)
        if len(atoms) < 2:
            return
        split = len(atoms) // 2
        prefix, delta = atoms[:split], atoms[split:]
        domains = initial_domains(VARIABLES, bound=32)
        narrowed_prefix = propagate(list(prefix), dict(domains))
        batch = propagate(list(atoms), dict(domains))
        if narrowed_prefix is None:
            # The prefix alone conflicts, so the whole set must conflict too.
            assert batch is None
            return
        combined, _ = propagate_delta(index_atoms(atoms), delta, dict(narrowed_prefix))
        if batch is None:
            assert combined is None
        else:
            assert combined == batch


class TestContextFixpointMatchesBatch:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=150, deadline=None)
    def test_pushed_domains_equal_whole_prefix_propagation(self, seed):
        rng = random.Random(seed)
        solver = ConstraintSolver(bound=32)
        context = SolverContext(solver)
        pushed_atoms = []
        for _ in range(rng.randint(1, 5)):
            name = rng.choice(VARIABLES)
            op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
            constraint = BinaryTerm(op, int_symbol(name), IntConst(rng.randint(-8, 8)))
            context.push(constraint)
        frames_atoms = [atom for frame in context._frames for atom in frame.atoms]
        top = context._frames[-1]
        variables = set()
        for atom in frames_atoms:
            variables |= atom.variables()
        batch = propagate(frames_atoms, initial_domains(variables, bound=solver.bound))
        if top.unsat:
            # The context proved UNSAT incrementally; batch propagation over
            # the same single-variable atoms must agree (an earlier frame may
            # already have conflicted, in which case later atoms were never
            # linearised -- re-check satisfiability with the solver instead).
            assert batch is None or not solver.check(context.constraints()).satisfiable
        else:
            assert batch is not None
            assert context.current_domains() == batch


class TestOneVariableAtomIsExaminedOnce:
    """One application of a one-variable atom, or of a ``<=`` atom, reaches
    its own fixpoint, so the narrowing it makes does not put it back on the
    worklist."""

    def test_raw_worklist_examines_a_narrowing_atom_once(self):
        for op in OPS:
            atom = LinearAtom(LinearExpr((("x", 2),), -8), op)
            domains = {"x": Interval(-32, 32)} if op != NE else {"x": Interval(4, 9)}
            narrowed, steps = propagate_delta(index_atoms([atom]), [atom], domains)
            assert narrowed is not None and narrowed["x"] != Interval(-32, 32)
            assert steps == 1

    def test_single_one_variable_push_counts_one_worklist_round(self):
        solver = ConstraintSolver(bound=32)
        context = SolverContext(solver)
        context.push(BinaryTerm("<=", int_symbol("x"), IntConst(5)))
        assert context.current_domains() == {"x": Interval(-32, 5)}
        assert solver.statistics.worklist_rounds == 1

    def test_dependents_are_still_reexamined(self):
        # x >= 4 narrows x, which re-examines x - y <= 0; that narrows y,
        # which would only re-examine the link itself.
        bound_x = LinearAtom(LinearExpr((("x", -1),), 4), LE)
        link = LinearAtom(LinearExpr((("x", 1), ("y", -1)), 0), LE)
        domains = initial_domains(("x", "y"), bound=32)
        narrowed, steps = propagate_delta(index_atoms([link, bound_x]), [bound_x], domains)
        assert narrowed == {"x": Interval(4, 32), "y": Interval(4, 32)}
        assert steps == 2


#: A small pool over x, y, z and w (w appears in few atoms, so it is often
#: first seen mid-stack): one-variable ``<=``, ``==`` and ``!=`` atoms, some
#: ``!=`` excluding a value that earlier atoms leave on an interval endpoint,
#: two-variable atoms, a conjunction of two atoms and contradictions (one
#: outright, the others only with the right companions).
X, Y, Z, W = (int_symbol(name) for name in "xyzw")
FRAME_POOL = tuple(
    simplify(constraint)
    for constraint in (
        BinaryTerm("<=", X, IntConst(3)),
        BinaryTerm(">=", X, IntConst(-2)),
        BinaryTerm("!=", X, IntConst(3)),
        BinaryTerm("!=", X, IntConst(-2)),
        BinaryTerm("!=", Y, IntConst(16)),
        BinaryTerm("==", Y, IntConst(5)),
        BinaryTerm(">", Y, IntConst(4)),
        BinaryTerm("<", Z, IntConst(0)),
        BinaryTerm("!=", Z, IntConst(-1)),
        BinaryTerm("==", W, IntConst(-7)),
        BinaryTerm("<=", BinaryTerm("-", X, Y), IntConst(0)),
        BinaryTerm("==", BinaryTerm("+", Y, Z), IntConst(2)),
        BinaryTerm("<", BinaryTerm("*", IntConst(2), W), X),
        BinaryTerm("&&", BinaryTerm("<", Z, X), BinaryTerm(">=", W, Y)),
        BinaryTerm(">", X, IntConst(10)),
        BinaryTerm("<", X, X),
    )
)

frame_operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from(FRAME_POOL)),
        st.tuples(st.just("pop"), st.none()),
    ),
    max_size=14,
)


#: An atom that propagation always refutes; it stands for a constraint
#: that linearises to ``false``.
FALSE = LinearAtom(LinearExpr((), 1), LE)


@functools.lru_cache(maxsize=None)
def linear_atoms(constraint) -> tuple:
    """The constraint's atoms, in the order the context seeds them.

    Memoised like the context's linearisation: the worklist queues atoms by
    identity, so a constraint pushed twice indexes the same atoms twice.
    """
    atoms, deferred, definitely_false = _linearize_delta(constraint)
    assert not deferred
    return (FALSE,) if definitely_false else atoms


class TestFrameBuildMatchesReferences:
    """After every push, the frame the context built agrees with batch
    propagation of the whole stack from the initial box (verdict, box,
    undecided atoms) and with the general worklist seeded by the delta from
    the parent's box (``worklist_rounds``)."""

    @given(frame_operations)
    @settings(max_examples=400, deadline=None)
    def test_every_push_matches_batch_and_worklist(self, ops):
        bound = 16
        solver = ConstraintSolver(bound=bound)
        context = SolverContext(solver)
        stack = []
        #: The constraints pushed on each stack level's frame (the root's
        #: first) since that frame was pushed: re-pushing one reuses its frame.
        pushed_on = [set()]
        for kind, constraint in ops:
            if kind == "pop":
                if stack:
                    context.pop()
                    stack.pop()
                    pushed_on.pop()
                continue
            reused = constraint in pushed_on[-1]
            pushed_on[-1].add(constraint)
            pushed_on.append(set())
            prefix_atoms = [atom for frame in stack for atom in linear_atoms(frame)]
            variables = {name for atom in prefix_atoms for name in atom.variables()}
            parent_box = propagate(prefix_atoms, initial_domains(variables, bound))
            rounds_before = solver.statistics.worklist_rounds
            context.push(constraint)
            stack.append(constraint)

            delta = linear_atoms(constraint)
            atoms = prefix_atoms + list(delta)
            variables |= {name for atom in delta for name in atom.variables()}
            box = propagate(atoms, initial_domains(variables, bound))
            expected_rounds = 0
            if not reused and parent_box is not None and FALSE not in delta:
                start = dict(parent_box)
                start.update((name, Interval(-bound, bound)) for name in variables - set(start))
                index = index_atoms(atoms)
                entries = sum(len(entries) for entries in index.values())
                _, expected_rounds = propagate_delta(index, delta, start, max_steps=64 * entries)

            top = context._frames[-1]
            assert top.unsat == (box is None)
            assert context.current_domains() == (box or {})
            expected = ConstraintSolver(bound=bound).check(stack)
            assert context.check().satisfiable == expected.satisfiable
            if box is not None:
                assert top.undecided == tuple(
                    atom for atom in atoms if not atom_definitely_satisfied(atom, box)
                )
            assert solver.statistics.worklist_rounds - rounds_before == expected_rounds
