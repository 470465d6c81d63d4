"""Tests for table and figure rendering."""

from repro.core.dise import ComparisonRow, run_dise
from repro.evolution.regression import RegressionReport
from repro.reporting.figures import render_cfg_figure, render_execution_tree
from repro.reporting.tables import (
    format_seconds,
    render_affected_sets,
    render_affected_trace,
    render_directed_trace,
    render_table2,
    render_table3,
)
from repro.symexec.engine import symbolic_execute


def sample_comparison_rows():
    return [
        ComparisonRow("v1", 1, 11, 0.05, 0.2, 41, 87, 8, 24),
        ComparisonRow("v2", 2, 0, 0.01, 0.2, 3, 87, 0, 24),
    ]


class TestFormatting:
    def test_format_seconds_milliseconds(self):
        assert format_seconds(0.123).endswith("ms")

    def test_format_seconds_minutes(self):
        assert format_seconds(75.5).startswith("01:")


class TestTableRenderers:
    def test_table2_contains_headers_and_rows(self):
        text = render_table2(sample_comparison_rows(), "WBS")
        assert "Table 2 (WBS)" in text
        assert "DiSE PCs" in text and "Full PCs" in text
        assert "v1" in text and "v2" in text

    def test_table3_rendering(self):
        reports = [
            RegressionReport("v1", 1, selected=["f(1)"], added=["f(2)", "f(3)"]),
            RegressionReport("v2", 2, selected=[], added=[]),
        ]
        text = render_table3(reports, "ASW")
        assert "Selected" in text and "Added" in text
        lines = text.splitlines()
        assert any("v1" in line and "1" in line and "2" in line for line in lines)

    def test_affected_trace_rendering(self, update_base, update_modified):
        result = run_dise(update_base, update_modified, procedure="update", record_trace=True)
        text = render_affected_trace(result.affected.trace)
        assert "Eq. (1)" in text
        assert "n0" in text

    def test_directed_trace_rendering(self, update_base, update_modified):
        result = run_dise(update_base, update_modified, procedure="update", record_trace=True)
        text = render_directed_trace(result.strategy.trace_rows)
        assert "UnExCond" in text
        assert "(no path)" in text

    def test_affected_sets_rendering(self, update_base, update_modified):
        result = run_dise(update_base, update_modified, procedure="update")
        text = render_affected_sets(result.affected)
        assert "ACN (4)" in text and "AWN (7)" in text


class TestFigureRenderers:
    def test_execution_tree_figure(self, testx):
        result = symbolic_execute(testx, "testX", build_tree=True, tracked_variables=["x", "y"])
        text = render_execution_tree(result)
        assert "symbolic execution tree" in text
        assert "Leaf path conditions" in text

    def test_execution_tree_requires_tree(self, testx):
        result = symbolic_execute(testx, "testX")
        try:
            render_execution_tree(result)
        except ValueError as error:
            assert "build_tree" in str(error)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")

    def test_cfg_figure(self, update_base, update_modified, update_modified_cfg):
        result = run_dise(update_base, update_modified, procedure="update")
        text = render_cfg_figure(update_modified_cfg, affected=result.affected)
        assert "digraph cfg" in text
        assert "Affected conditional nodes" in text
