"""Linearisation of integer terms into normal-form linear constraints.

A :class:`LinearExpr` is ``sum(coefficient * symbol) + constant`` with integer
coefficients.  A :class:`LinearAtom` is a normalised comparison of a linear
expression against zero using one of three operators:

* ``<=``  (``expr <= 0``)
* ``==``  (``expr == 0``)
* ``!=``  (``expr != 0``)

Strict inequalities and the remaining comparison operators are rewritten using
integer reasoning (``a < b`` becomes ``a - b + 1 <= 0``).  Boolean symbols are
encoded as 0/1 integer variables by the solver before linearisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

from repro.solver.terms import (
    BinaryTerm,
    BoolConst,
    IntConst,
    NegTerm,
    Symbol,
    Term,
    apply_op,
)


class NonLinearError(Exception):
    """Raised when a term cannot be expressed as a linear integer expression."""


@dataclass(frozen=True)
class LinearExpr:
    """``sum(coeffs[name] * name) + constant`` with integer coefficients."""

    coeffs: Tuple[Tuple[str, int], ...] = ()
    constant: int = 0

    @staticmethod
    def from_dict(coeffs: Dict[str, int], constant: int) -> "LinearExpr":
        cleaned = tuple(sorted((n, c) for n, c in coeffs.items() if c != 0))
        return LinearExpr(cleaned, constant)

    def coefficient_map(self) -> Dict[str, int]:
        return dict(self.coeffs)

    def variables(self) -> FrozenSet[str]:
        return frozenset(name for name, _ in self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def add(self, other: "LinearExpr") -> "LinearExpr":
        coeffs = self.coefficient_map()
        for name, value in other.coeffs:
            coeffs[name] = coeffs.get(name, 0) + value
        return LinearExpr.from_dict(coeffs, self.constant + other.constant)

    def negate(self) -> "LinearExpr":
        return LinearExpr(tuple((n, -c) for n, c in self.coeffs), -self.constant)

    def subtract(self, other: "LinearExpr") -> "LinearExpr":
        return self.add(other.negate())

    def scale(self, factor: int) -> "LinearExpr":
        return LinearExpr(tuple((n, c * factor) for n, c in self.coeffs), self.constant * factor)

    def shift(self, delta: int) -> "LinearExpr":
        return LinearExpr(self.coeffs, self.constant + delta)

    def evaluate(self, assignment: Dict[str, int]) -> int:
        total = self.constant
        for name, coeff in self.coeffs:
            total += coeff * int(assignment[name])
        return total

    def __str__(self) -> str:
        parts = []
        for name, coeff in self.coeffs:
            if coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        if self.constant or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts).replace("+ -", "- ")


#: Normal-form relational operators.
LE = "<="
EQ = "=="
NE = "!="


@dataclass(frozen=True)
class LinearAtom:
    """A normalised linear constraint ``expr OP 0``."""

    expr: LinearExpr
    op: str  # one of LE, EQ, NE

    def variables(self) -> FrozenSet[str]:
        return self.expr.variables()

    def is_trivially_true(self) -> bool:
        if not self.expr.is_constant():
            return False
        value = self.expr.constant
        return (
            (self.op == LE and value <= 0)
            or (self.op == EQ and value == 0)
            or (self.op == NE and value != 0)
        )

    def is_trivially_false(self) -> bool:
        return self.expr.is_constant() and not self.is_trivially_true()

    def holds(self, assignment: Dict[str, int]) -> bool:
        value = self.expr.evaluate(assignment)
        if self.op == LE:
            return value <= 0
        if self.op == EQ:
            return value == 0
        return value != 0

    def __str__(self) -> str:
        return f"{self.expr} {self.op} 0"


def bool_symbol_atom(name: str, value: bool) -> LinearAtom:
    """Encode a boolean symbol as the 0/1 integer variable ``name``.

    ``value=True`` yields ``name - 1 == 0`` and ``value=False`` yields
    ``name == 0``.  This is the single encoding rule shared by the complete
    solver's boolean rewriting and the incremental context's delta
    linearisation, so the two layers cannot drift apart.
    """
    expr = LinearExpr(((name, 1),), -1 if value else 0)
    return LinearAtom(expr, EQ)


def linearize_int(term: Term) -> LinearExpr:
    """Convert an integer-sorted term to a :class:`LinearExpr`.

    Raises:
        NonLinearError: for products of symbolic terms, division, modulo or
            boolean-sorted sub-terms.
    """
    if isinstance(term, IntConst):
        return LinearExpr((), term.value)
    if isinstance(term, BoolConst):
        raise NonLinearError("Boolean constant in integer context")
    if isinstance(term, Symbol):
        return LinearExpr(((term.name, 1),), 0)
    if isinstance(term, NegTerm):
        return linearize_int(term.operand).negate()
    if isinstance(term, BinaryTerm):
        if term.op == "+":
            return linearize_int(term.left).add(linearize_int(term.right))
        if term.op == "-":
            return linearize_int(term.left).subtract(linearize_int(term.right))
        if term.op == "*":
            left = linearize_int(term.left)
            right = linearize_int(term.right)
            if left.is_constant():
                return right.scale(left.constant)
            if right.is_constant():
                return left.scale(right.constant)
            raise NonLinearError(f"Non-linear product: {term}")
        if term.op in ("/", "%"):
            left = linearize_int(term.left)
            right = linearize_int(term.right)
            if left.is_constant() and right.is_constant() and right.constant != 0:
                return LinearExpr((), apply_op(term.op, left.constant, right.constant))
            raise NonLinearError(f"Division/modulo is not linear: {term}")
        raise NonLinearError(f"Operator {term.op!r} is not an integer operator")
    raise NonLinearError(f"Cannot linearise term of type {type(term).__name__}")


def linearize_comparison(op: str, left: Term, right: Term) -> LinearAtom:
    """Convert ``left op right`` over integers into a normal-form atom."""
    difference = linearize_int(left).subtract(linearize_int(right))
    if op == "<":
        return LinearAtom(difference.shift(1), LE)
    if op == "<=":
        return LinearAtom(difference, LE)
    if op == ">":
        return LinearAtom(difference.negate().shift(1), LE)
    if op == ">=":
        return LinearAtom(difference.negate(), LE)
    if op == "==":
        return LinearAtom(difference, EQ)
    if op == "!=":
        return LinearAtom(difference, NE)
    raise NonLinearError(f"Unknown comparison operator {op!r}")
