"""Tests for symbolic terms: evaluation, substitution, negation."""

import pytest

from repro.solver.terms import (
    BOOL_SORT,
    FALSE,
    INT_SORT,
    TRUE,
    BinaryTerm,
    BoolConst,
    EvaluationError,
    IntConst,
    NegTerm,
    NotTerm,
    Symbol,
    bool_symbol,
    conjunction,
    int_symbol,
    negate,
    substitute,
)


X = int_symbol("x")
Y = int_symbol("y")
B = bool_symbol("b")


class TestEvaluation:
    def test_constants(self):
        assert IntConst(5).evaluate({}) == 5
        assert BoolConst(True).evaluate({}) is True

    def test_symbol_lookup(self):
        assert X.evaluate({"x": 7}) == 7

    def test_missing_symbol_raises(self):
        with pytest.raises(EvaluationError):
            X.evaluate({})

    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("+", 3, 4, 7),
            ("-", 3, 4, -1),
            ("*", 3, 4, 12),
            ("/", 7, 2, 3),
            ("/", -7, 2, -3),  # truncation toward zero (Java semantics)
            ("%", 7, 2, 1),
            ("%", -7, 2, -1),
            ("==", 3, 3, True),
            ("!=", 3, 3, False),
            ("<", 3, 4, True),
            ("<=", 4, 4, True),
            (">", 3, 4, False),
            (">=", 4, 4, True),
        ],
    )
    def test_binary_operators(self, op, left, right, expected):
        term = BinaryTerm(op, IntConst(left), IntConst(right))
        assert term.evaluate({}) == expected

    def test_logical_operators(self):
        assert BinaryTerm("&&", TRUE, FALSE).evaluate({}) is False
        assert BinaryTerm("||", TRUE, FALSE).evaluate({}) is True

    def test_division_by_zero_raises(self):
        with pytest.raises(EvaluationError):
            BinaryTerm("/", IntConst(1), IntConst(0)).evaluate({})

    def test_negation_terms(self):
        assert NegTerm(IntConst(3)).evaluate({}) == -3
        assert NotTerm(FALSE).evaluate({}) is True

    def test_compound_expression(self):
        term = BinaryTerm("+", BinaryTerm("*", X, IntConst(2)), Y)
        assert term.evaluate({"x": 3, "y": 1}) == 7


class TestSymbolsAndSorts:
    def test_symbol_collection(self):
        term = BinaryTerm("+", X, BinaryTerm("-", Y, X))
        assert term.symbols() == frozenset({"x", "y"})

    def test_sorts(self):
        assert X.sort == INT_SORT
        assert B.sort == BOOL_SORT
        assert BinaryTerm("+", X, Y).sort == INT_SORT
        assert BinaryTerm("<", X, Y).sort == BOOL_SORT
        assert BinaryTerm("&&", B, TRUE).sort == BOOL_SORT

    def test_operator_overloads(self):
        assert str(X + Y) == "(x + y)"
        assert str(X - IntConst(1)) == "(x - 1)"
        assert str(X * IntConst(2)) == "(x * 2)"


class TestSubstitution:
    def test_substitute_symbol(self):
        term = BinaryTerm("+", X, Y)
        result = substitute(term, {"x": IntConst(5)})
        assert result.evaluate({"y": 1}) == 6

    def test_substitute_leaves_unmapped_symbols(self):
        result = substitute(X, {"y": IntConst(1)})
        assert result is X

    def test_substitute_nested(self):
        term = NotTerm(BinaryTerm("<", X, Y))
        result = substitute(term, {"x": IntConst(0), "y": IntConst(1)})
        assert result.evaluate({}) is False


class TestNegate:
    @pytest.mark.parametrize(
        "op,negated_op",
        [("==", "!="), ("!=", "=="), ("<", ">="), ("<=", ">"), (">", "<="), (">=", "<")],
    )
    def test_comparison_flipping(self, op, negated_op):
        term = BinaryTerm(op, X, Y)
        assert negate(term) == BinaryTerm(negated_op, X, Y)

    def test_double_negation(self):
        assert negate(NotTerm(B)) == B

    def test_constant_negation(self):
        assert negate(TRUE) == FALSE

    def test_de_morgan_and(self):
        term = BinaryTerm("&&", B, BinaryTerm(">", X, IntConst(0)))
        negated = negate(term)
        assert negated.op == "||"
        assert negated.right == BinaryTerm("<=", X, IntConst(0))

    def test_de_morgan_or(self):
        term = BinaryTerm("||", B, B)
        assert negate(term).op == "&&"

    def test_negate_is_semantic_complement(self):
        term = BinaryTerm("&&", BinaryTerm(">", X, IntConst(0)), B)
        for x in (-1, 0, 1):
            for b in (True, False):
                env = {"x": x, "b": b}
                assert negate(term).evaluate(env) == (not term.evaluate(env))


class TestConjunction:
    def test_empty_conjunction_is_true(self):
        assert conjunction([]) == TRUE

    def test_single_element(self):
        assert conjunction([B]) == B

    def test_multiple_elements(self):
        term = conjunction([B, TRUE, BinaryTerm(">", X, IntConst(0))])
        assert term.evaluate({"b": True, "x": 1}) is True
        assert term.evaluate({"b": False, "x": 1}) is False
