"""Tests for interval propagation."""

from repro.solver.intervals import (
    DEFAULT_BOUND,
    Interval,
    atom_definitely_satisfied,
    initial_domains,
    propagate,
)
from repro.solver.linear import linearize_comparison
from repro.solver.terms import BinaryTerm, IntConst, int_symbol

X = int_symbol("x")
Y = int_symbol("y")


def atoms_for(*specs):
    """Build atoms from (op, left, right) term specs."""
    return [linearize_comparison(op, left, right) for op, left, right in specs]


class TestInterval:
    def test_width(self):
        assert Interval(2, 5).width == 4

    def test_empty_interval(self):
        assert Interval(3, 2).width == 0

    def test_singleton(self):
        assert Interval(4, 4).is_singleton


class TestPropagation:
    def test_upper_bound_narrowing(self):
        atoms = atoms_for(("<=", X, IntConst(10)))
        domains = propagate(atoms, initial_domains({"x"}))
        assert domains["x"].high == 10
        assert domains["x"].low == -DEFAULT_BOUND

    def test_lower_bound_narrowing(self):
        atoms = atoms_for((">", X, IntConst(3)))
        domains = propagate(atoms, initial_domains({"x"}))
        assert domains["x"].low == 4

    def test_equality_pins_value(self):
        atoms = atoms_for(("==", X, IntConst(7)))
        domains = propagate(atoms, initial_domains({"x"}))
        assert domains["x"] == Interval(7, 7)

    def test_contradiction_returns_none(self):
        atoms = atoms_for(("<", X, IntConst(0)), (">", X, IntConst(0)))
        assert propagate(atoms, initial_domains({"x"})) is None

    def test_two_variable_propagation(self):
        # x == y + 5 and y >= 0 implies x >= 5
        atoms = atoms_for(
            ("==", X, BinaryTerm("+", Y, IntConst(5))),
            (">=", Y, IntConst(0)),
        )
        domains = propagate(atoms, initial_domains({"x", "y"}))
        assert domains["x"].low >= 5

    def test_disequality_trims_endpoint(self):
        atoms = atoms_for((">=", X, IntConst(0)), ("<=", X, IntConst(1)), ("!=", X, IntConst(0)))
        domains = propagate(atoms, initial_domains({"x"}))
        assert domains["x"] == Interval(1, 1)

    def test_disequality_contradiction(self):
        atoms = atoms_for(("==", X, IntConst(3)), ("!=", X, IntConst(3)))
        assert propagate(atoms, initial_domains({"x"})) is None

    def test_constant_false_atom(self):
        atoms = atoms_for(("<", IntConst(2), IntConst(1)))
        assert propagate(atoms, initial_domains(set())) is None


class TestAtomClassification:
    def test_definitely_satisfied(self):
        atom = atoms_for(("<=", X, IntConst(10)))[0]
        domains = {"x": Interval(0, 5)}
        assert atom_definitely_satisfied(atom, domains)

    def test_violated_is_not_satisfied(self):
        atom = atoms_for(("<=", X, IntConst(10)))[0]
        assert not atom_definitely_satisfied(atom, {"x": Interval(11, 20)})

    def test_undetermined(self):
        atom = atoms_for(("<=", X, IntConst(10)))[0]
        domains = {"x": Interval(5, 20)}
        assert not atom_definitely_satisfied(atom, domains)

    def test_equality_classification(self):
        atom = atoms_for(("==", X, IntConst(3)))[0]
        assert atom_definitely_satisfied(atom, {"x": Interval(3, 3)})
        assert not atom_definitely_satisfied(atom, {"x": Interval(4, 9)})
        assert not atom_definitely_satisfied(atom, {"x": Interval(2, 4)})

    def test_disequality_classification(self):
        atom = atoms_for(("!=", X, IntConst(0)))[0]
        assert atom_definitely_satisfied(atom, {"x": Interval(1, 5)})
        assert not atom_definitely_satisfied(atom, {"x": Interval(0, 0)})
