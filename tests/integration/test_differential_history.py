"""Differential oracle for the cross-version summary cache.

The summary cache claims its replays are *exact*: a cached run must produce
the same distinct path conditions a cold run produces, for every version of
every artifact history.  These tests are what make that claim trustworthy
-- they run each history twice, once through the shared-cache batch runner
and once as isolated cold runs (fresh solver, no cache), and compare the
distinct path-condition sets of both the directed (DiSE) and the
full-exploration legs.  Each history runs in its recorded version order
and in one seeded shuffle of it, so exactness does not hang on the pairs
the recorded order happens to produce.
"""

import dataclasses
import random

import pytest

from repro.artifacts import all_artifacts
from repro.core.dise import run_dise
from repro.evolution.history import VersionHistoryRunner
from repro.lang.parser import parse_program
from repro.solver.core import ConstraintSolver
from repro.symexec.engine import symbolic_execute


def _distinct(summary):
    return tuple(sorted(str(pc) for pc in summary.distinct_path_conditions()))


#: The version orders every history runs in.
ORDERS = ("recorded", "shuffled")


def in_order(artifact, order):
    """``artifact`` with its non-base versions in the recorded order, or in
    one seeded shuffle (the order the benchmark's seed 3 runs first)."""
    if order == "recorded":
        return artifact
    versions = list(artifact.versions)
    random.Random(f"3:0:{artifact.name}").shuffle(versions)
    return dataclasses.replace(artifact, versions=tuple(versions))


@pytest.fixture(
    scope="module",
    params=[(a.name, order) for a in all_artifacts() for order in ORDERS],
    ids="-".join,
)
def history_run(request):
    """One shared-cache history run per artifact and version order (the
    system under test)."""
    name, order = request.param
    artifact = in_order(next(a for a in all_artifacts() if a.name == name), order)
    report = VersionHistoryRunner(artifact, include_full=True).run()
    programs = {"base": parse_program(artifact.base_source)}
    for spec in artifact.versions:
        programs[spec.name] = parse_program(spec.source)
    return artifact, report, programs


class TestDifferentialHistory:
    def test_cached_dise_matches_cold_dise(self, history_run):
        """Same distinct affected PCs whether subtrees are replayed or re-run."""
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
                f"{artifact.name} {row.previous}->{row.version}: cached DiSE diverged"
            )

    def test_cached_full_matches_cold_full(self, history_run):
        """The full-exploration leg is exact as well (ColorGo-style oracle)."""
        artifact, report, programs = history_run
        for row in report.versions:
            cold = symbolic_execute(
                programs[row.version],
                procedure_name=artifact.procedure_name,
                solver=ConstraintSolver(),
            )
            assert row.full_distinct_pcs == _distinct(cold.summary), (
                f"{artifact.name} {row.version}: cached full exploration diverged"
            )

    def test_some_versions_actually_replayed(self, history_run):
        """Guard against the cache silently never hitting (vacuous equality)."""
        artifact, report, _ = history_run
        replayed = sum(
            (row.dise or {}).get("replayed_paths", 0)
            + (row.full or {}).get("replayed_paths", 0)
            + (row.full or {}).get("replayed_segments", 0)
            for row in report.versions
        )
        assert replayed > 0
        assert report.cache["hits"] > 0


def test_directed_replay_preserves_error_paths():
    """Replayed subtrees keep assertion-failure records intact."""
    base = parse_program(
        """
        proc check(int x, int y) {
            if (x > 0) {
                assert y != 1;
            }
            if (y > 5) {
                y = y + 1;
            }
        }
        """
    )
    modified = parse_program(
        """
        proc check(int x, int y) {
            if (x >= 0) {
                assert y != 1;
            }
            if (y > 5) {
                y = y + 1;
            }
        }
        """
    )
    from repro.symexec.summary_cache import SummaryCache

    cache = SummaryCache()
    solver = ConstraintSolver()
    warm_first = symbolic_execute(base, "check", solver=solver, summary_cache=cache)
    warm = symbolic_execute(modified, "check", solver=solver, summary_cache=cache)
    cold = symbolic_execute(modified, "check", solver=ConstraintSolver())
    assert _distinct(warm.summary) == _distinct(cold.summary)
    assert len(warm.summary.error_records) == len(cold.summary.error_records) > 0
    assert warm_first.statistics.summary_cache_stores > 0
