"""Model identity of the component-wise search against plain bisection.

``ReferenceSolver`` keeps a verbatim copy of the branch-and-bound search the
solver used before the component split and the candidate-point shortcut: one
bisection over the whole box.  The current solver must return the same
verdict and the *same model* on every query, because generated test inputs
are read off these models.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.solver.core import ConstraintSolver, SolverError, SolverResult
from repro.solver.intervals import (
    Interval,
    atom_definitely_satisfied,
    initial_domains,
    propagate,
    value_closest_to_zero,
)
from repro.solver.terms import BinaryTerm, IntConst, int_symbol

COMPARISONS = ["<", "<=", ">", ">=", "==", "!="]
#: A small box keeps the reference's exhaustive bisection of UNSAT coupled
#: atoms (``2*x - 2*y == 1``) fast; the fixed case below uses the default.
BOUND = 64


class ReferenceSolver(ConstraintSolver):
    """Plain bisection over the whole box (the search before components)."""

    def _solve_box(self, atoms, domains=None):
        variables = set()
        for atom in atoms:
            variables |= atom.variables()
        return self._search(atoms, initial_domains(variables, self.bound), 0)

    def _search(self, atoms, domains, depth):
        self.statistics.propagations += 1
        narrowed = propagate(atoms, domains)
        if narrowed is None:
            return SolverResult(False)
        # If every atom is satisfied over the whole box, any point works; pick
        # the one closest to zero so generated test inputs stay readable.
        if all(atom_definitely_satisfied(atom, narrowed) for atom in atoms):
            model = {
                name: value_closest_to_zero(interval) for name, interval in narrowed.items()
            }
            return SolverResult(True, model)
        # All singleton but not all satisfied => this box is a single failing point.
        split_candidates = [
            (interval.width, name)
            for name, interval in narrowed.items()
            if not interval.is_singleton
        ]
        if not split_candidates:
            model = {name: interval.low for name, interval in narrowed.items()}
            if all(atom.holds(model) for atom in atoms):
                return SolverResult(True, model)
            return SolverResult(False)
        self.statistics.branch_steps += 1
        if self.statistics.branch_steps > self.max_branch_steps:
            raise SolverError("Branch-and-bound step limit exceeded")
        # A query admitted before the deadline may still straddle it; check
        # inside the search loop so a hard query cannot overrun the budget
        # by more than one branch-and-bound step.
        if self.deadline is not None:
            self.deadline.charge()
        # Split the narrowest non-singleton interval at its midpoint, trying the
        # half nearer to zero first so that models (and therefore generated test
        # inputs) stay small in magnitude.
        _, name = min(split_candidates)
        interval = narrowed[name]
        midpoint = (interval.low + interval.high) // 2
        halves = [Interval(interval.low, midpoint), Interval(midpoint + 1, interval.high)]
        halves.sort(key=lambda half: min(abs(half.low), abs(half.high), abs(value_closest_to_zero(half))))
        for half in halves:
            child = dict(narrowed)
            child[name] = half
            result = self._search(atoms, child, depth + 1)
            if result.satisfiable:
                return result
        return SolverResult(False)


def _linear(coefficients, constant):
    total = IntConst(constant)
    for coefficient, symbol in coefficients:
        total = BinaryTerm("+", total, BinaryTerm("*", IntConst(coefficient), symbol))
    return total


@st.composite
def conjunctions(draw):
    """3-6 variables in 1-3 variable-disjoint groups; single-variable atoms,
    coupled two-variable atoms inside a group, ``!=`` and ``||``."""
    count = draw(st.integers(min_value=3, max_value=6))
    symbols = [int_symbol(f"v{i}") for i in range(count)]
    groups = draw(st.lists(st.integers(0, 2), min_size=count, max_size=count))
    coefficient = st.integers(-3, 3).filter(bool)

    def atom():
        first = draw(st.integers(0, count - 1))
        partners = [i for i in range(count) if i != first and groups[i] == groups[first]]
        terms = [(draw(coefficient), symbols[first])]
        if partners and draw(st.booleans()):
            terms.append((draw(coefficient), symbols[draw(st.sampled_from(partners))]))
        op = draw(st.sampled_from(COMPARISONS))
        return BinaryTerm(op, _linear(terms, draw(st.integers(-10, 10))), IntConst(0))

    constraints = []
    for _ in range(draw(st.integers(2, 8))):
        term = atom()
        if draw(st.integers(0, 3)) == 0:
            term = BinaryTerm("||", term, atom())
        constraints.append(term)
    return constraints


def _both(constraints, **options):
    reference = ReferenceSolver(**options)
    try:
        expected = reference.check(constraints)
    except SolverError:
        assume(False)  # the reference ran out of steps; nothing to compare
    solver = ConstraintSolver(**options)
    return expected, solver.check(constraints), reference, solver


@given(conjunctions())
@settings(max_examples=200, deadline=None)
def test_same_verdict_and_model_as_plain_bisection(constraints):
    expected, result, _, _ = _both(constraints, bound=BOUND, max_branch_steps=20_000)
    assert result.satisfiable == expected.satisfiable
    assert result.model == expected.model


def test_coupled_atom_beside_single_variable_atoms_takes_two_steps():
    """The hard shape from the version histories: one coupled atom
    (``alt < thresh``) beside single-variable atoms it never mentions."""
    alt, thresh = int_symbol("alt"), int_symbol("thresh")
    a, b, c, d = (int_symbol(name) for name in "abcd")
    constraints = [
        BinaryTerm("<", alt, thresh),
        BinaryTerm(">=", a, IntConst(3)),
        BinaryTerm("<=", b, IntConst(-2)),
        BinaryTerm("==", c, IntConst(7)),
        BinaryTerm(">", d, IntConst(100)),
    ]
    expected, result, reference, solver = _both(constraints)
    assert result.satisfiable and result.model == expected.model
    assert solver.statistics.branch_steps <= 2
    assert reference.statistics.branch_steps > 2


def test_candidate_point_needs_no_split():
    """``x + y == 0`` leaves the box at ±bound, but its closest-to-zero
    point already satisfies it: no branch step, the reference's model."""
    x, y = int_symbol("x"), int_symbol("y")
    constraints = [BinaryTerm("==", BinaryTerm("+", x, y), IntConst(0))]
    expected, result, reference, solver = _both(constraints)
    assert result.model == expected.model == {"x": 0, "y": 0}
    assert solver.statistics.branch_steps == 0
    assert reference.statistics.branch_steps > 0


def test_unsat_group_makes_the_query_unsat():
    """A group refuted only by search (``2*x - 2*y == 1``) beside a
    satisfiable group: the whole query is UNSAT, as under bisection."""
    x, y, z = int_symbol("x"), int_symbol("y"), int_symbol("z")
    parity = _linear([(2, x), (-2, y)], -1)
    constraints = [BinaryTerm("<", z, IntConst(-5)), BinaryTerm("==", parity, IntConst(0))]
    expected, result, _, solver = _both(constraints, bound=BOUND)
    assert not expected.satisfiable and not result.satisfiable
    assert solver.statistics.branch_steps > 0
