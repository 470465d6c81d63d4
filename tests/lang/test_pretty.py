"""Tests for the pretty printer, including parse/print round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_procedure, pretty_program


ROUND_TRIP_SOURCES = [
    "global int y;\n\nproc f(int x) {\n    y = x;\n}\n",
    "proc f(int x) {\n    if (x > 0) {\n        x = 1;\n    } else {\n        x = 2;\n    }\n}\n",
    "proc f(int x) {\n    while (x > 0) {\n        x = x - 1;\n    }\n}\n",
    "proc f(int x) {\n    assert x >= 0;\n    return x;\n}\n",
    "proc f(bool b) {\n    skip;\n}\n",
    "global bool flag = true;\n\nproc f() {\n    int z = 3;\n}\n",
]


class TestRoundTrip:
    @pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
    def test_pretty_then_parse_is_structurally_equal(self, source):
        program = parse_program(source)
        reparsed = parse_program(pretty_program(program))
        assert reparsed.structural_key() == program.structural_key()

    def test_round_trip_paper_examples(self, testx_source, update_modified_source):
        for source in (testx_source, update_modified_source):
            program = parse_program(source)
            reparsed = parse_program(pretty_program(program))
            assert reparsed.structural_key() == program.structural_key()

    def test_pretty_is_idempotent(self, update_base_source):
        program = parse_program(update_base_source)
        once = pretty_program(program)
        twice = pretty_program(parse_program(once))
        assert once == twice


class TestRendering:
    def test_procedure_signature_rendered(self):
        program = parse_program("proc f(int a, bool b) { skip; }")
        text = pretty_procedure(program.procedures[0])
        assert text.startswith("proc f(int a, bool b) {")

    def test_else_branch_rendered(self):
        program = parse_program("proc f(int x) { if (x > 0) { x = 1; } else { x = 2; } }")
        text = pretty_procedure(program.procedures[0])
        assert "} else {" in text

    def test_globals_rendered_before_procedures(self):
        program = parse_program("global int g = 1; proc f() { skip; }")
        text = pretty_program(program)
        assert text.index("global int g = 1;") < text.index("proc f()")

    def test_indentation_depth(self):
        program = parse_program(
            "proc f(int x) { if (x > 0) { if (x > 1) { x = 2; } } }"
        )
        text = pretty_procedure(program.procedures[0])
        assert "        if ((x > 1)) {" in text or "        if (x > 1) {" in text


@st.composite
def small_programs(draw):
    """Generate small random programs as source text via structured choices."""
    n_statements = draw(st.integers(min_value=1, max_value=4))
    statements = []
    for _ in range(n_statements):
        kind = draw(st.sampled_from(["assign", "if", "decl"]))
        constant = draw(st.integers(min_value=-5, max_value=5))
        if kind == "assign":
            statements.append(f"x = x + {constant};")
        elif kind == "decl":
            name = draw(st.sampled_from(["a", "b", "c"]))
            statements.append(f"int {name} = {constant};")
        else:
            statements.append(f"if (x > {constant}) {{ x = {constant}; }} else {{ x = x - 1; }}")
    body = "\n    ".join(statements)
    return f"proc f(int x) {{\n    {body}\n}}\n"


class TestPropertyRoundTrip:
    @given(small_programs())
    @settings(max_examples=60, deadline=None)
    def test_random_program_round_trips(self, source):
        program = parse_program(source)
        reparsed = parse_program(pretty_program(program))
        assert reparsed.structural_key() == program.structural_key()


def _history_artifacts():
    from repro.artifacts import all_artifacts, interproc_artifacts

    return list(all_artifacts()) + list(interproc_artifacts())


@pytest.mark.parametrize("artifact", _history_artifacts(), ids=lambda a: a.name)
def test_pretty_parse_round_trip_preserves_cfg_node_ids(artifact):
    """Reparsing printed source assigns every CFG node the same id, so ids
    recorded against one parse (store entries, reports) name the same nodes
    in the other."""
    from repro.cfg.builder import build_cfg

    for name, _, _, source in artifact.history():
        original = parse_program(source)
        reparsed = parse_program(pretty_program(original))
        nodes = [
            sorted(
                (node.node_id, node.structural_key())
                for node in build_cfg(program, artifact.procedure_name).nodes
            )
            for program in (original, reparsed)
        ]
        assert nodes[0] == nodes[1], f"{artifact.name} {name}"
