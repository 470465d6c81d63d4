"""Unit tests for the MiniLang parser."""

import pytest

from repro.lang.ast_nodes import (
    Assert,
    Assign,
    BinaryOp,
    BoolLiteral,
    If,
    IntLiteral,
    Return,
    Skip,
    UnaryOp,
    VarDecl,
    VarRef,
    While,
)
from repro.lang.errors import ParseError
from repro.lang.parser import parse_procedure, parse_program


def parse_single_statement(body_source: str):
    procedure = parse_procedure(f"proc p(int x, bool b) {{ {body_source} }}")
    assert len(procedure.body) == 1
    return procedure.body[0]


def parse_expression(expr_source: str):
    stmt = parse_single_statement(f"x = {expr_source};")
    assert isinstance(stmt, Assign)
    return stmt.value


class TestProgramStructure:
    def test_empty_program(self):
        program = parse_program("")
        assert program.globals == []
        assert program.procedures == []

    def test_global_with_initialiser(self):
        program = parse_program("global int y = 3;")
        assert program.globals[0].name == "y"
        assert isinstance(program.globals[0].init, IntLiteral)

    def test_global_without_initialiser(self):
        program = parse_program("global int y;")
        assert program.globals[0].init is None

    def test_bool_global(self):
        program = parse_program("global bool flag = true;")
        assert program.globals[0].type_name == "bool"

    def test_procedure_parameters(self):
        procedure = parse_procedure("proc f(int a, bool b, int c) { skip; }")
        assert [p.name for p in procedure.params] == ["a", "b", "c"]
        assert [p.type_name for p in procedure.params] == ["int", "bool", "int"]

    def test_procedure_without_parameters(self):
        procedure = parse_procedure("proc f() { skip; }")
        assert procedure.params == []

    def test_multiple_procedures(self):
        program = parse_program("proc a() { skip; } proc b() { skip; }")
        assert [p.name for p in program.procedures] == ["a", "b"]

    def test_program_procedure_lookup(self):
        program = parse_program("proc a() { skip; } proc b() { skip; }")
        assert program.procedure("b").name == "b"
        with pytest.raises(KeyError):
            program.procedure("missing")

    def test_parse_procedure_by_name(self):
        procedure = parse_procedure("proc a() { skip; } proc b() { skip; }", name="b")
        assert procedure.name == "b"

    def test_parse_procedure_no_procedures_raises(self):
        with pytest.raises(ParseError):
            parse_procedure("global int x;")


class TestStatements:
    def test_var_decl_with_init(self):
        stmt = parse_single_statement("int y = 1 + 2;")
        assert isinstance(stmt, VarDecl)
        assert stmt.name == "y"
        assert isinstance(stmt.init, BinaryOp)

    def test_var_decl_without_init(self):
        stmt = parse_single_statement("int y;")
        assert isinstance(stmt, VarDecl)
        assert stmt.init is None

    def test_assignment(self):
        stmt = parse_single_statement("x = x + 1;")
        assert isinstance(stmt, Assign)
        assert stmt.name == "x"

    def test_if_without_else(self):
        stmt = parse_single_statement("if (x > 0) { x = 1; }")
        assert isinstance(stmt, If)
        assert len(stmt.then_body) == 1
        assert stmt.else_body == []

    def test_if_with_else(self):
        stmt = parse_single_statement("if (x > 0) { x = 1; } else { x = 2; }")
        assert isinstance(stmt, If)
        assert len(stmt.else_body) == 1

    def test_else_if_chain_nests(self):
        stmt = parse_single_statement(
            "if (x == 0) { x = 1; } else if (x == 1) { x = 2; } else { x = 3; }"
        )
        assert isinstance(stmt, If)
        nested = stmt.else_body[0]
        assert isinstance(nested, If)
        assert len(nested.else_body) == 1

    def test_while_loop(self):
        stmt = parse_single_statement("while (x > 0) { x = x - 1; }")
        assert isinstance(stmt, While)
        assert len(stmt.body) == 1

    def test_assert_statement(self):
        stmt = parse_single_statement("assert x >= 0;")
        assert isinstance(stmt, Assert)

    def test_return_with_value(self):
        stmt = parse_single_statement("return x + 1;")
        assert isinstance(stmt, Return)
        assert stmt.value is not None

    def test_return_without_value(self):
        stmt = parse_single_statement("return;")
        assert isinstance(stmt, Return)
        assert stmt.value is None

    def test_skip(self):
        assert isinstance(parse_single_statement("skip;"), Skip)

    def test_statement_line_numbers(self):
        procedure = parse_procedure("proc p(int x) {\n    x = 1;\n    x = 2;\n}")
        assert procedure.body[0].line == 2
        assert procedure.body[1].line == 3


class TestExpressions:
    def test_literals(self):
        assert isinstance(parse_expression("5"), IntLiteral)

    def test_bool_literal_needs_bool_context(self):
        stmt = parse_single_statement("b = true;")
        assert isinstance(stmt.value, BoolLiteral)

    def test_variable_reference(self):
        assert isinstance(parse_expression("x"), VarRef)

    def test_precedence_multiplication_over_addition(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_comparison_over_logical(self):
        stmt = parse_single_statement("b = x > 0 && x < 10;")
        expr = stmt.value
        assert expr.op == "&&"
        assert expr.left.op == ">"
        assert expr.right.op == "<"

    def test_precedence_and_over_or(self):
        stmt = parse_single_statement("b = b && b || b;")
        assert stmt.value.op == "||"
        assert stmt.value.left.op == "&&"

    def test_parentheses_override_precedence(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_unary_minus(self):
        expr = parse_expression("-x")
        assert isinstance(expr, UnaryOp)
        assert expr.op == "-"

    def test_unary_not(self):
        stmt = parse_single_statement("b = !b;")
        assert isinstance(stmt.value, UnaryOp)
        assert stmt.value.op == "!"

    def test_left_associativity_of_subtraction(self):
        expr = parse_expression("x - 1 - 2")
        assert expr.op == "-"
        assert expr.left.op == "-"

    def test_modulo_and_division(self):
        expr = parse_expression("x / 2 % 3")
        assert expr.op == "%"
        assert expr.left.op == "/"

    def test_variables_helper_deduplicates(self):
        expr = parse_expression("x + x * x")
        assert expr.variables() == ("x",)


class TestParseErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "proc p( { }",
            "proc p() { x = ; }",
            "proc p() { if x > 0 { } }",
            "proc p() { int = 3; }",
            "proc p() { x = 1 }",
            "proc p() { while (x) }",
            "proc p() {",
            "int x = 1;",
            "proc p() { 42 = x; }",
        ],
    )
    def test_malformed_sources_raise(self, source):
        with pytest.raises(ParseError):
            parse_program(source)

    def test_error_reports_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("proc p() {\n  x = ;\n}")
        assert excinfo.value.line == 2


class TestPaperExamples:
    def test_testx_structure(self, testx_source):
        program = parse_program(testx_source)
        assert [g.name for g in program.globals] == ["y"]
        procedure = program.procedure("testX")
        assert isinstance(procedure.body[0], If)

    def test_update_structure(self, update_modified_source):
        program = parse_program(update_modified_source)
        procedure = program.procedure("update")
        assert [p.name for p in procedure.params] == ["PedalPos", "BSwitch", "PedalCmd"]
        # first statement is the (modified) changed conditional
        first = procedure.body[0]
        assert isinstance(first, If)
        assert first.condition.op == "<="
