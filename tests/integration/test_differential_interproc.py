"""Differential oracle for the interprocedural layer.

For every version of the multi-procedure histories (ASW-CALLS, FCS), the
distinct path conditions must be identical across two execution regimes:

* **inline (cold)** -- fresh solver, no summary cache: every call is
  executed by stepping into the spliced callee body;
* **summary replay (warm)** -- the shared-cache batch runner, where
  unchanged callee regions replay per-procedure summaries instead of
  re-executing.

Also pins the interprocedural invalidation contract: a callee-only edit
leaves every caller region that does not reach the callee valid (their
summaries keep replaying), while the reaching regions hash differently and
are re-explored.  The warm runs take each history in its recorded order
and in one seeded shuffle of it.
"""

import pytest

from repro.artifacts import interproc_artifacts
from repro.core.dise import run_dise
from repro.evolution.history import VersionHistoryRunner
from repro.lang.parser import parse_program
from repro.solver.core import ConstraintSolver
from repro.symexec.engine import symbolic_execute

from tests.integration.test_differential_history import ORDERS, in_order


def _distinct(summary):
    return tuple(sorted(str(pc) for pc in summary.distinct_path_conditions()))


def _artifact(name):
    return next(a for a in interproc_artifacts() if a.name == name)


@pytest.fixture(
    scope="module",
    params=[(a.name, order) for a in interproc_artifacts() for order in ORDERS],
    ids="-".join,
)
def history_run(request):
    name, order = request.param
    artifact = in_order(_artifact(name), order)
    report = VersionHistoryRunner(artifact, include_full=True).run()
    programs = {"base": parse_program(artifact.base_source)}
    for spec in artifact.versions:
        programs[spec.name] = parse_program(spec.source)
    return artifact, report, programs


class TestInterproceduralDifferential:
    def test_warm_dise_matches_inline_cold(self, history_run):
        artifact, report, programs = history_run
        assert len(report.versions) == len(artifact.versions)
        for row in report.versions:
            cold = run_dise(
                programs[row.previous],
                programs[row.version],
                procedure=artifact.procedure_name,
                solver=ConstraintSolver(),
            )
            assert row.dise_distinct_pcs == _distinct(cold.execution.summary), (
                f"{artifact.name} {row.previous}->{row.version}: warm DiSE diverged"
            )

    def test_warm_full_matches_inline_cold(self, history_run):
        artifact, report, programs = history_run
        for row in report.versions:
            cold = symbolic_execute(
                programs[row.version],
                procedure_name=artifact.procedure_name,
                solver=ConstraintSolver(),
            )
            assert row.full_distinct_pcs == _distinct(cold.summary), (
                f"{artifact.name} {row.version}: warm full exploration diverged"
            )

    def test_summaries_actually_replayed(self, history_run):
        artifact, report, _ = history_run
        replayed = sum(
            (row.dise or {}).get("replayed_paths", 0)
            + (row.full or {}).get("replayed_paths", 0)
            + (row.full or {}).get("replayed_segments", 0)
            for row in report.versions
        )
        assert replayed > 0
        assert report.cache["hits"] > 0

    def test_callee_preserving_versions_reuse_summaries(self, history_run):
        """Caller-only edits leave every callee summary valid (>= 30% reuse)."""
        preserving = {
            "ASW-CALLS": {"v4", "v5"},
            "FCS": {"v3", "v6"},
        }
        artifact, report, _ = history_run
        for row in report.versions:
            if row.version not in preserving[artifact.name]:
                continue
            assert row.summary_reuse is not None
            assert row.summary_reuse >= 0.30, (
                f"{artifact.name} {row.version}: caller-only edit only reused "
                f"{row.summary_reuse}"
            )


class TestCalleeOnlyEditImpact:
    def test_callee_edit_affects_reaching_callers_only(self):
        """FCS v4 edits escalate; sensor_vote splices must stay unchanged."""
        artifact = _artifact("FCS")
        base = parse_program(artifact.base_source)
        modified = parse_program(artifact.version_source("v4"))
        result = run_dise(base, modified, procedure=artifact.procedure_name)
        static = result.diff_map
        from repro.cfg.ir import NodeKind

        changed_ids = {
            node.node_id
            for node in static.cfg_mod.nodes
            if static.mark_of_mod_node(node).value in ("changed", "added")
        }
        sensor_calls = [
            n
            for n in static.cfg_mod.nodes
            if n.kind is NodeKind.CALL and n.callee == "sensor_vote"
        ]
        escalate_calls = [
            n
            for n in static.cfg_mod.nodes
            if n.kind is NodeKind.CALL and n.callee == "escalate"
        ]
        assert sensor_calls and escalate_calls
        # The edited callee's call sites are changed (digest shift)...
        assert all(n.node_id in changed_ids for n in escalate_calls)
        # ...while call sites of the untouched callee are not.
        assert all(n.node_id not in changed_ids for n in sensor_calls)
