"""Tests for translating AST expressions into symbolic terms.

``tests/integration/test_cold_path_differential.py`` checks the lowered
evaluator against the old tree walk over every artifact history.
"""

import pytest

import repro.symexec.evaluator as evaluator
from repro.lang.parser import parse_procedure
from repro.lang.ast_nodes import Assign
from repro.solver.terms import (
    BinaryTerm,
    IntConst,
    NegTerm,
    NotTerm,
    Symbol,
    bool_symbol,
    int_symbol,
)
from repro.symexec.evaluator import (
    UndefinedVariableError,
    evaluate_expression,
    lower_expression,
)


def expression_from(source_expr, declared="int x, int y", target="x"):
    procedure = parse_procedure(f"proc p({declared}) {{ {target} = {source_expr}; }}")
    stmt = procedure.body[0]
    assert isinstance(stmt, Assign)
    return stmt.value


class TestEvaluation:
    def test_literal(self):
        term = evaluate_expression(expression_from("5"), {})
        assert term == IntConst(5)

    def test_variable_lookup(self):
        env = {"x": int_symbol("X"), "y": IntConst(3)}
        term = evaluate_expression(expression_from("y"), env)
        assert term == IntConst(3)

    def test_symbolic_addition(self):
        env = {"x": int_symbol("x"), "y": int_symbol("y")}
        term = evaluate_expression(expression_from("x + y"), env)
        assert term == BinaryTerm("+", Symbol("x"), Symbol("y"))

    def test_concrete_folding(self):
        env = {"x": IntConst(2), "y": IntConst(3)}
        assert evaluate_expression(expression_from("x * y + 1"), env) == IntConst(7)

    def test_partial_folding(self):
        env = {"x": int_symbol("x"), "y": IntConst(0)}
        # x + 0 simplifies to x
        assert evaluate_expression(expression_from("x + y"), env) == Symbol("x")

    def test_unary_operators(self):
        env = {"x": IntConst(4), "y": IntConst(0)}
        assert evaluate_expression(expression_from("-x"), env) == IntConst(-4)

    def test_comparison_expression(self):
        env = {"x": int_symbol("x"), "y": IntConst(1)}
        procedure = parse_procedure("proc p(int x, int y, bool b) { b = x > y; }")
        term = evaluate_expression(procedure.body[0].value, env)
        assert term == BinaryTerm(">", Symbol("x"), IntConst(1))

    def test_undefined_variable_raises(self):
        with pytest.raises(UndefinedVariableError):
            evaluate_expression(expression_from("x + y"), {"x": IntConst(1)})

    def test_paper_figure1_symbolic_value(self):
        """y = y + x with symbolic Y and X produces the Figure 1 value Y + X."""
        env = {"y": int_symbol("y"), "x": int_symbol("x")}
        procedure = parse_procedure("proc t(int x, int y) { y = y + x; }")
        term = evaluate_expression(procedure.body[0].value, env)
        assert str(term) == "(y + x)"


class TestLowering:
    def test_undefined_variable_keeps_name_and_line(self):
        procedure = parse_procedure("proc p(int x, int y) {\n  skip;\n  x = x + y;\n}")
        lowered = lower_expression(procedure.body[1].value)
        with pytest.raises(UndefinedVariableError, match=r"'y' read before any definition \(line 3\)"):
            lowered({"x": int_symbol("x")})

    def test_constant_division_by_zero_stays_unfolded(self):
        zero_division = BinaryTerm("/", IntConst(7), IntConst(0))
        assert evaluate_expression(expression_from("7 / 0"), {}) is zero_division
        env = {"x": IntConst(7), "y": IntConst(0)}
        assert evaluate_expression(expression_from("x / y"), env) is zero_division

    def test_double_negations_simplify(self):
        x = int_symbol("x")
        assert evaluate_expression(expression_from("--x"), {"x": x}) is x
        assert evaluate_expression(expression_from("-x"), {"x": x}) is NegTerm(x)
        assert evaluate_expression(expression_from("--x"), {"x": IntConst(3)}) is IntConst(3)
        b = bool_symbol("b")
        declared = "int x, bool b, bool c"
        double = expression_from("!!b", declared, target="c")
        single = expression_from("!b", declared, target="c")
        assert evaluate_expression(double, {"b": b}) is b
        assert evaluate_expression(single, {"b": b}) is NotTerm(b)

    def test_cfgs_of_one_parse_share_the_lowering(self):
        from repro.cfg.builder import build_cfg

        procedure = parse_procedure("proc p(int x, int y) { if (x > y) { x = x + 1; } }")
        first, second = build_cfg(procedure), build_cfg(procedure)
        for left, right in zip(first.nodes, second.nodes):
            assert left.lowered_expr is right.lowered_expr
            assert left.lowered_condition is right.lowered_condition
        expr = procedure.body[0].condition
        assert lower_expression(expr) is lower_expression(expr)

    def test_environment_terms_are_simplified_on_read(self):
        x = int_symbol("x")
        env = {"x": BinaryTerm("+", x, IntConst(0)), "y": BinaryTerm("*", IntConst(2), IntConst(3))}
        assert evaluate_expression(expression_from("x"), env) is x
        assert evaluate_expression(expression_from("x + y"), env) is BinaryTerm("+", x, IntConst(6))

    def test_a_subtree_reading_no_variable_is_built_once(self, monkeypatch):
        calls = []
        simplify_binary = evaluator._simplify_binary

        def counting(op, left, right):
            calls.append(op)
            return simplify_binary(op, left, right)

        monkeypatch.setattr(evaluator, "_simplify_binary", counting)
        lowered = lower_expression(expression_from("x + (2 * 3)"))
        assert calls == ["*"]
        x = int_symbol("x")
        assert lowered({"x": x}) is BinaryTerm("+", x, IntConst(6))
        assert lowered({"x": IntConst(1)}) is IntConst(7)
        assert calls == ["*", "+", "+"]
