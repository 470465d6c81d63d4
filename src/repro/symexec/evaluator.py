"""Evaluation of MiniLang expressions into symbolic terms.

Given a symbolic environment (variable name -> :class:`~repro.solver.terms.Term`),
an AST expression is translated into the term it denotes.  This is the step
that turns ``y = y + x`` into the symbolic value ``Y + X`` in Figure 1 of the
paper.

Expressions are *lowered* once into closures over the environment
(:func:`lower_expression`); every CFG node carries its lowered expressions,
built with the node.  The closure is memoised on the AST expression, so
every CFG built from one parse (a version is the modified program of one
DiSE run, the base of the next and the subject of its full run) shares
it, and the closures live only as long as the parse.  A lowered binary node applies the simplifier's binary
rules straight to its children's already-simplified terms, so no
unsimplified intermediate term is built and thrown away, and a subtree that
reads no variable is folded once, at lowering.  Every term still comes from
the interning constructors, so a lowered expression returns exactly the
canonical term ``simplify`` gives for the translated tree.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Tuple

from repro.lang.ast_nodes import (
    BinaryOp,
    BoolLiteral,
    Expr,
    IntLiteral,
    UnaryOp,
    VarRef,
)
from repro.solver.simplify import _simplify_binary, simplify
from repro.solver.terms import (
    BoolConst,
    IntConst,
    NegTerm,
    NotTerm,
    Term,
)

#: A lowered expression: the environment in, the simplified term out.
Lowered = Callable[[Mapping[str, Term]], Term]


class UndefinedVariableError(Exception):
    """Raised when an expression reads a variable with no symbolic value."""


def evaluate_expression(expr: Expr, environment: Mapping[str, Term]) -> Term:
    """Translate ``expr`` to a (simplified) symbolic term under ``environment``."""
    return lower_expression(expr)(environment)


def lower_expression(expr: Expr) -> Lowered:
    """Compile ``expr`` into a closure from an environment to its simplified
    term (memoised on ``expr``)."""
    lowered = expr.__dict__.get("_lowered")
    if lowered is None:
        lowered = _lower(expr)[0]
        object.__setattr__(expr, "_lowered", lowered)
    return lowered


def _lower(expr: Expr) -> Tuple[Lowered, Optional[Term]]:
    """The lowered closure of ``expr`` and, when it reads no variable and
    folds without error, the term it always returns."""
    if isinstance(expr, IntLiteral):
        return _constant(IntConst(expr.value))
    if isinstance(expr, BoolLiteral):
        return _constant(BoolConst(expr.value))
    if isinstance(expr, VarRef):
        return _read(expr.name, expr.line), None
    if isinstance(expr, UnaryOp):
        operand, constant = _lower(expr.operand)
        if expr.op == "-":
            lowered = _negation(operand)
        elif expr.op == "!":
            lowered = _not(operand)
        else:
            raise ValueError(f"Unknown unary operator {expr.op!r}")
        return _fold(lowered, constant is not None)
    if isinstance(expr, BinaryOp):
        left, left_constant = _lower(expr.left)
        right, right_constant = _lower(expr.right)
        lowered = _binary(expr.op, left, right)
        return _fold(lowered, left_constant is not None and right_constant is not None)
    raise TypeError(f"Cannot evaluate expression of type {type(expr).__name__}")


def _constant(term: Term) -> Tuple[Lowered, Term]:
    return (lambda environment: term), term


def _fold(lowered: Lowered, constant_operands: bool) -> Tuple[Lowered, Optional[Term]]:
    """Fold ``lowered`` now when its operands read no variable.

    A fold that raises (an ill-typed constant such as ``true / false``) is
    left to raise at evaluation, where the tree walk raised it.
    """
    if not constant_operands:
        return lowered, None
    try:
        term = lowered({})
    except Exception:
        return lowered, None
    return _constant(term)


def _read(name: str, line: int) -> Lowered:
    def read(environment: Mapping[str, Term]) -> Term:
        try:
            value = environment[name]
        except KeyError:
            raise UndefinedVariableError(
                f"Variable {name!r} read before any definition (line {line})"
            ) from None
        return simplify(value)

    return read


def _negation(operand: Lowered) -> Lowered:
    def negation(environment: Mapping[str, Term]) -> Term:
        value = operand(environment)
        if isinstance(value, IntConst):
            return IntConst(-value.value)
        if isinstance(value, NegTerm):
            return value.operand
        return NegTerm(value)

    return negation


def _not(operand: Lowered) -> Lowered:
    def not_(environment: Mapping[str, Term]) -> Term:
        value = operand(environment)
        if isinstance(value, BoolConst):
            return BoolConst(not value.value)
        if isinstance(value, NotTerm):
            return value.operand
        return NotTerm(value)

    return not_


def _binary(op: str, left: Lowered, right: Lowered) -> Lowered:
    def binary(environment: Mapping[str, Term]) -> Term:
        return _simplify_binary(op, left(environment), right(environment))

    return binary
