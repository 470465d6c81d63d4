"""Tests for the structural AST diff."""

from repro.diff.ast_diff import ChangeKind, diff_procedures
from repro.lang.ast_nodes import Assign, If
from repro.lang.parser import parse_procedure


def diff_sources(base_source, mod_source):
    return diff_procedures(parse_procedure(base_source), parse_procedure(mod_source))


class TestIdenticalVersions:
    def test_no_changes_detected(self, update_base_source):
        base = parse_procedure(update_base_source, "update")
        modified = parse_procedure(update_base_source, "update")
        result = diff_procedures(base, modified)
        assert not result.has_changes()
        assert len(result.unchanged_pairs) == 15

    def test_whitespace_only_difference_is_no_change(self):
        result = diff_sources(
            "proc f(int x) { x = x + 1; }",
            "proc f(int x) {\n    x   =   x + 1;\n}",
        )
        assert not result.has_changes()


class TestOperatorAndOperandChanges:
    def test_changed_condition_detected(self, update_base_source, update_modified_source):
        base = parse_procedure(update_base_source, "update")
        modified = parse_procedure(update_modified_source, "update")
        result = diff_procedures(base, modified)
        assert len(result.changed_pairs) == 1
        base_stmt, mod_stmt = result.changed_pairs[0]
        assert isinstance(base_stmt, If) and isinstance(mod_stmt, If)
        assert base_stmt.condition.op == "==" and mod_stmt.condition.op == "<="
        assert not result.added and not result.removed

    def test_changed_condition_keeps_nested_statements_unchanged(
        self, update_base_source, update_modified_source
    ):
        base = parse_procedure(update_base_source, "update")
        modified = parse_procedure(update_modified_source, "update")
        result = diff_procedures(base, modified)
        assert len(result.unchanged_pairs) == 14

    def test_changed_assignment_value(self):
        result = diff_sources("proc f(int x) { x = 1; }", "proc f(int x) { x = 2; }")
        assert len(result.changed_pairs) == 1
        assert isinstance(result.changed_pairs[0][0], Assign)

    def test_multiple_changes(self):
        result = diff_sources(
            "proc f(int x) { if (x == 0) { x = 1; } x = 5; }",
            "proc f(int x) { if (x <= 0) { x = 1; } x = 6; }",
        )
        assert len(result.changed_pairs) == 2


class TestAddedAndRemovedStatements:
    def test_added_statement(self):
        result = diff_sources(
            "proc f(int x) { x = 1; }",
            "proc f(int x) { x = 1; x = 2; }",
        )
        assert len(result.added) == 1
        assert not result.removed

    def test_removed_statement(self):
        result = diff_sources(
            "proc f(int x) { x = 1; x = 2; }",
            "proc f(int x) { x = 1; }",
        )
        assert len(result.removed) == 1
        assert not result.added

    def test_removed_if_removes_nested_statements_too(self):
        result = diff_sources(
            "proc f(int x) { if (x > 0) { x = 1; x = 2; } x = 3; }",
            "proc f(int x) { x = 3; }",
        )
        # the if and both nested assignments are removed
        assert len(result.removed) == 3

    def test_added_nested_statement_inside_unchanged_if(self):
        result = diff_sources(
            "proc f(int x) { if (x > 0) { x = 1; } }",
            "proc f(int x) { if (x > 0) { x = 1; x = 2; } }",
        )
        assert len(result.added) == 1
        # the guarding if itself is unchanged
        kinds = [result.modified_statement_kind(stmt) for stmt, in
                 [(s,) for _, s in result.unchanged_pairs]]
        assert all(kind is ChangeKind.UNCHANGED for kind in kinds)

    def test_replacement_of_different_statement_kinds(self):
        result = diff_sources(
            "proc f(int x) { x = 1; }",
            "proc f(int x) { if (x > 0) { skip; } }",
        )
        assert len(result.removed) == 1
        assert len(result.added) >= 1


class TestClassificationHelpers:
    def test_base_and_modified_statement_kind(self):
        result = diff_sources(
            "proc f(int x) { x = 1; x = 9; }",
            "proc f(int x) { x = 2; x = 9; }",
        )
        base_changed, mod_changed = result.changed_pairs[0]
        assert result.base_statement_kind(base_changed) is ChangeKind.CHANGED
        assert result.modified_statement_kind(mod_changed) is ChangeKind.CHANGED
        base_same, mod_same = result.unchanged_pairs[0]
        assert result.base_statement_kind(base_same) is ChangeKind.UNCHANGED
        assert result.modified_statement_kind(mod_same) is ChangeKind.UNCHANGED

    def test_every_base_statement_is_paired(self):
        result = diff_sources(
            "proc f(int x) { x = 1; x = 9; }",
            "proc f(int x) { x = 2; x = 9; }",
        )
        assert len(result.unchanged_pairs) + len(result.changed_pairs) == 2

    def test_summary_text(self):
        result = diff_sources("proc f(int x) { x = 1; }", "proc f(int x) { x = 2; }")
        assert "1 changed" in result.summary()


class TestArtifactVersions:
    def test_every_artifact_version_reports_expected_change_count(self):
        from repro.artifacts import all_artifacts

        for artifact in all_artifacts():
            base = artifact.base_program().procedure(artifact.procedure_name)
            for spec in artifact.versions:
                modified = artifact.version_program(spec.name).procedure(artifact.procedure_name)
                result = diff_procedures(base, modified)
                assert result.has_changes(), f"{artifact.name} {spec.name} shows no diff"
                observed = len(result.changed_pairs) + len(result.added) + len(result.removed)
                assert observed == spec.change_count, (
                    f"{artifact.name} {spec.name}: expected {spec.change_count} changes, "
                    f"diff found {observed}"
                )
