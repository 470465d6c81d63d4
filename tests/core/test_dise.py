"""Tests for the end-to-end DiSE pipeline and the DiSE-vs-full comparison."""

import pytest

from repro.core.dise import DiSE, compare_dise_with_full, run_dise
from repro.lang.parser import parse_program
from repro.symexec.engine import symbolic_execute


class TestPipeline:
    def test_run_dise_returns_metrics(self, update_base, update_modified):
        result = run_dise(update_base, update_modified, procedure="update")
        metrics = result.metrics()
        assert metrics["changed_nodes"] == 1
        assert metrics["affected_nodes"] == 11
        assert metrics["path_conditions"] == 8
        assert metrics["time_seconds"] >= metrics["static_analysis_seconds"]

    def test_metrics_dict_is_flat_scalars(self, update_base, update_modified):
        result = run_dise(update_base, update_modified, procedure="update")
        for key, value in result.metrics().items():
            assert isinstance(value, (int, float)) and not isinstance(value, bool), key

    def test_default_procedure_is_first_in_modified_program(self, update_base, update_modified):
        result = run_dise(update_base, update_modified)
        assert result.procedure_name == "update"

    def test_accepts_bare_procedures(self):
        base = parse_program("proc f(int x) { if (x == 0) { x = 1; } }").procedures[0]
        modified = parse_program("proc f(int x) { if (x <= 0) { x = 1; } }").procedures[0]
        result = run_dise(base, modified)
        assert len(result.path_conditions) >= 1

    def test_unknown_procedure_raises(self, update_base, update_modified):
        with pytest.raises(KeyError):
            DiSE(update_base, update_modified, procedure_name="missing")

    def test_rejects_non_program_arguments(self):
        with pytest.raises(TypeError):
            DiSE("not a program", "also not a program")

    def test_depth_bound_is_forwarded(self):
        source = "proc f(int n) { int i = 0; while (i < n) { i = i + 1; } if (i > 0) { n = 0; } }"
        base = parse_program(source)
        modified = parse_program(source.replace("i > 0", "i >= 1"))
        result = run_dise(base, modified, procedure="f", depth_bound=4)
        assert result.execution.statistics.depth_bound_hits >= 0
        assert len(result.path_conditions) >= 1


class TestComparison:
    def test_comparison_row_fields(self, update_base, update_modified):
        row = compare_dise_with_full(
            update_base, update_modified, procedure="update", version_label="example"
        )
        assert row.version == "example"
        assert row.changed_nodes == 1
        assert row.dise_path_conditions == 8
        assert row.full_path_conditions == 24
        assert row.dise_states < row.full_states
        assert set(row.as_dict()) >= {"dise_states", "full_states", "version"}

    def test_dise_never_exceeds_full_path_count(self, update_base, update_modified):
        row = compare_dise_with_full(update_base, update_modified, procedure="update")
        assert row.dise_path_conditions <= row.full_path_conditions

    def test_unchanged_program_produces_no_affected_paths(self, update_base):
        result = run_dise(update_base, update_base, procedure="update")
        assert result.affected_node_count == 0
        assert len(result.path_conditions) == 0
        # the directed search prunes everything right at the first branch
        assert result.states_explored < symbolic_execute(
            update_base, "update"
        ).statistics.states_explored


class TestAgainstFullExecutionOnSmallPrograms:
    CASES = [
        # (base, modified)
        (
            "proc f(int x) { if (x == 0) { x = 1; } else { x = 2; } }",
            "proc f(int x) { if (x <= 0) { x = 1; } else { x = 2; } }",
        ),
        (
            "proc f(int a, int b) { if (a > 0) { a = 1; } if (b > 0) { b = 1; } }",
            "proc f(int a, int b) { if (a > 1) { a = 1; } if (b > 0) { b = 1; } }",
        ),
        (
            "global int g = 0;"
            "proc f(int a, int b) { if (a > 0) { g = 1; } if (b > 0) { g = 2; } }",
            "global int g = 0;"
            "proc f(int a, int b) { if (a > 0) { g = 1; } if (b > 0) { g = 3; } }",
        ),
    ]

    @pytest.mark.parametrize("base_source,mod_source", CASES)
    def test_dise_paths_are_full_paths(self, base_source, mod_source):
        base = parse_program(base_source)
        modified = parse_program(mod_source)
        dise_result = run_dise(base, modified)
        full_result = symbolic_execute(modified)
        full_set = {str(pc) for pc in full_result.path_conditions}
        assert {str(pc) for pc in dise_result.path_conditions} <= full_set

    @pytest.mark.parametrize("base_source,mod_source", CASES)
    def test_dise_covers_behaviours_that_actually_differ(self, base_source, mod_source):
        """With the completion extension, every genuinely changed behaviour is
        reported (the paper's literal pruning can drop paths whose affected
        region is followed only by unaffected branches -- see DESIGN.md)."""
        base = parse_program(base_source)
        modified = parse_program(mod_source)
        dise_result = DiSE(base, modified, complete_covered_paths=True).run()
        base_full = {str(pc) for pc in symbolic_execute(base).path_conditions}
        mod_full = symbolic_execute(modified).path_conditions
        new_conditions = [pc for pc in mod_full if str(pc) not in base_full]
        if not new_conditions:
            return
        assert dise_result.path_conditions, "changed behaviour but DiSE reported nothing"
