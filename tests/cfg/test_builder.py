"""Tests for CFG construction, including the Figure 2 node numbering."""

import pytest

from repro.cfg.builder import RETURN_VARIABLE, build_cfg
from repro.cfg.ir import FALSE_EDGE, TRUE_EDGE, NodeKind
from repro.lang.parser import parse_procedure, parse_program


def cfg_for(source, name=None):
    return build_cfg(parse_program(source), name)


class TestBasicShapes:
    def test_straight_line_program(self):
        cfg = cfg_for("proc f(int x) { x = 1; x = 2; }")
        kinds = [n.kind for n in cfg.nodes]
        assert kinds == [NodeKind.BEGIN, NodeKind.ASSIGN, NodeKind.ASSIGN, NodeKind.END]

    def test_empty_procedure(self):
        cfg = cfg_for("proc f() { }")
        assert [n.kind for n in cfg.nodes] == [NodeKind.BEGIN, NodeKind.END]
        assert cfg.successors(cfg.begin) == [cfg.end]

    def test_if_produces_branch_node_with_labelled_edges(self):
        cfg = cfg_for("proc f(int x) { if (x > 0) { x = 1; } else { x = 2; } }")
        branch = cfg.branch_nodes()[0]
        true_target = cfg.successor_on(branch, TRUE_EDGE)
        false_target = cfg.successor_on(branch, FALSE_EDGE)
        assert true_target.target == "x" and str(true_target.expr) == "1"
        assert false_target.target == "x" and str(false_target.expr) == "2"

    def test_if_without_else_falls_through(self):
        cfg = cfg_for("proc f(int x) { if (x > 0) { x = 1; } x = 2; }")
        branch = cfg.branch_nodes()[0]
        false_target = cfg.successor_on(branch, FALSE_EDGE)
        assert false_target.label == "x = 2"

    def test_while_loop_back_edge(self):
        cfg = cfg_for("proc f(int x) { while (x > 0) { x = x - 1; } }")
        branch = cfg.branch_nodes()[0]
        body = cfg.successor_on(branch, TRUE_EDGE)
        assert cfg.successors(body) == [branch]
        assert cfg.successor_on(branch, FALSE_EDGE) is cfg.end

    def test_var_decl_without_init_defaults(self):
        cfg = cfg_for("proc f() { int x; bool b; }")
        writes = cfg.write_nodes()
        assert str(writes[0].expr) == "0"
        assert str(writes[1].expr) == "false"

    def test_return_value_assigns_synthetic_variable(self):
        cfg = cfg_for("proc f(int x) { return x + 1; }")
        writes = cfg.write_nodes()
        assert writes[0].target == RETURN_VARIABLE
        assert cfg.successors(writes[0]) == [cfg.end]

    def test_return_exits_early(self):
        cfg = cfg_for("proc f(int x) { if (x > 0) { return; } x = 1; }")
        nops = [n for n in cfg.nodes if n.kind is NodeKind.NOP]
        assert cfg.successors(nops[0]) == [cfg.end]

    def test_assert_desugars_to_branch_and_error(self):
        cfg = cfg_for("proc f(int x) { assert x >= 0; x = 1; }")
        branch = cfg.branch_nodes()[0]
        error_nodes = [n for n in cfg.nodes if n.kind is NodeKind.ERROR]
        assert len(error_nodes) == 1
        assert cfg.successor_on(branch, FALSE_EDGE) is error_nodes[0]
        assert cfg.successors(error_nodes[0]) == [cfg.end]

    def test_skip_is_nop(self):
        cfg = cfg_for("proc f() { skip; }")
        assert any(n.kind is NodeKind.NOP for n in cfg.nodes)

    def test_well_formedness_checked(self):
        cfg = cfg_for("proc f(int x) { if (x > 0) { x = 1; } else { x = 2; } x = 3; }")
        cfg.check_well_formed()

    def test_build_cfg_accepts_procedure(self):
        procedure = parse_procedure("proc f(int x) { x = 1; }")
        cfg = build_cfg(procedure)
        assert cfg.procedure_name == "f"

    def test_build_cfg_rejects_other_types(self):
        with pytest.raises(TypeError):
            build_cfg("not a program")


class TestStatementMapping:
    def test_statement_to_node_mapping(self):
        program = parse_program("proc f(int x) { x = 1; if (x > 0) { x = 2; } }")
        procedure = program.procedures[0]
        cfg = build_cfg(procedure)
        assign_nodes = cfg.nodes_for_statement(procedure.body[0])
        assert len(assign_nodes) == 1
        assert assign_nodes[0].kind is NodeKind.ASSIGN

    def test_nodes_carry_their_statement_line(self):
        cfg = cfg_for("proc f(int x) {\n    x = 1;\n    x = 2;\n}")
        assert len([n for n in cfg.nodes if n.line == 2]) == 1
        assert len([n for n in cfg.nodes if n.line == 3]) == 1


class TestFigure2Numbering:
    """The update() CFG must use the paper's n0..n14 labels (Figure 2(b))."""

    EXPECTED_LABELS = {
        "n0": "(PedalPos <= 0)",
        "n1": "PedalCmd = (PedalCmd + 1)",
        "n2": "(PedalPos == 1)",
        "n3": "PedalCmd = (PedalCmd + 2)",
        "n4": "PedalCmd = PedalPos",
        "n5": "PedalCmd = (PedalCmd + 1)",
        "n6": "(BSwitch == 0)",
        "n7": "Meter = 1",
        "n8": "(BSwitch == 1)",
        "n9": "Meter = 2",
        "n10": "(PedalCmd == 2)",
        "n11": "AltPress = 0",
        "n12": "(PedalCmd == 3)",
        "n13": "AltPress = 1",
        "n14": "AltPress = 2",
    }

    def test_node_names_match_paper(self, update_modified_cfg):
        labels = {n.name: n.label for n in update_modified_cfg.nodes if n.node_id >= 0}
        assert labels == self.EXPECTED_LABELS

    def test_node_count_matches_paper(self, update_modified_cfg):
        statement_nodes = [n for n in update_modified_cfg.nodes if n.node_id >= 0]
        assert len(statement_nodes) == 15

    def test_paper_path_p0_exists(self, update_modified_cfg):
        """p0 = <n0, n1, n5, n6, n7, n10, n11> must be a CFG path."""
        cfg = update_modified_cfg
        sequence = [0, 1, 5, 6, 7, 10, 11]
        for first, second in zip(sequence, sequence[1:]):
            successors = [n.node_id for n in cfg.successors(cfg.node(first))]
            assert second in successors

    def test_branch_and_write_partition(self, update_modified_cfg):
        branch_ids = {n.node_id for n in update_modified_cfg.branch_nodes()}
        write_ids = {n.node_id for n in update_modified_cfg.write_nodes()}
        assert branch_ids == {0, 2, 6, 8, 10, 12}
        assert write_ids == {1, 3, 4, 5, 7, 9, 11, 13, 14}

    def test_vars_set_matches_paper(self, update_modified_cfg):
        assert update_modified_cfg.variables() == {
            "PedalPos",
            "PedalCmd",
            "BSwitch",
            "Meter",
            "AltPress",
        }
