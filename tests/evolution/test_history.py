"""Tests for the batch version-history runner."""

import pytest

from repro.artifacts import wbs_artifact
from repro.core.dise import DiSE
from repro.evolution.history import VersionHistoryRunner, run_history
from repro.symexec.summary_cache import SummaryCache


@pytest.fixture(scope="module")
def wbs_report():
    return run_history(wbs_artifact(), include_full=True, measure_baseline=True)


class TestVersionHistoryRunner:
    def test_one_row_per_version(self, wbs_report):
        artifact = wbs_artifact()
        assert [row.version for row in wbs_report.versions] == artifact.version_names()
        assert [row.previous for row in wbs_report.versions] == (
            ["base"] + artifact.version_names()[:-1]
        )

    def test_seed_run_populates_cache(self, wbs_report):
        assert wbs_report.seed is not None
        assert wbs_report.seed["cache_stores"] > 0
        assert wbs_report.cache["stores"] > 0
        assert wbs_report.cache["entries"] > 0

    def test_every_version_reuses_summaries(self, wbs_report):
        for row in wbs_report.versions:
            assert row.summary_reuse is not None
            assert row.summary_reuse >= 0.30, f"{row.version} reused {row.summary_reuse:.0%}"

    def test_reuse_never_inflates_results(self, wbs_report):
        """Cached legs explore at most as many states as the cold baselines."""
        for row in wbs_report.versions:
            assert row.dise["states"] <= row.baseline_dise["states"]
            assert row.full["states"] <= row.baseline_full["states"]
            assert row.dise["distinct_path_conditions"] == (
                row.baseline_dise["distinct_path_conditions"]
            )
            assert row.full["distinct_path_conditions"] == (
                row.baseline_full["distinct_path_conditions"]
            )

    def test_as_dict_round_trips_to_json(self, wbs_report):
        import json

        payload = json.dumps(wbs_report.as_dict())
        assert "summary_reuse" in payload
        assert "baseline_dise" in payload

    def test_without_full_leg(self):
        report = VersionHistoryRunner(
            wbs_artifact(), include_full=False, measure_baseline=False
        ).run()
        assert report.seed is None
        for row in report.versions:
            assert row.full is None
            assert row.decision_reuse is None

    def test_serial_directed_sweep_has_no_token_misses(self):
        # A token miss needs an entry under a *different* strategy token,
        # which a serial directed sweep over WBS never creates for the keys
        # it probes.
        artifact = wbs_artifact()
        cache = SummaryCache()
        previous = artifact.base_program()
        misses = 0
        for name in artifact.version_names():
            program = artifact.version_program(name)
            result = DiSE(
                previous, program, procedure_name=artifact.procedure_name, summary_cache=cache
            ).run()
            misses += result.execution.statistics.strategy_token_misses
            previous = program
        assert misses == 0

    @pytest.mark.parametrize("workers", [0, 2, 4])
    def test_only_serial_workers_accepted(self, workers):
        with pytest.raises(ValueError, match="workers must be 1"):
            VersionHistoryRunner(wbs_artifact(), workers=workers)

    def test_changed_and_affected_counts_are_adjacent_pair_diffs(self, wbs_report):
        # v1 diffs (base -> v1): a single guard edit.
        assert wbs_report.versions[0].changed_nodes >= 1
        # v2 diffs (v1 -> v2): the v1 edit reverts and the v2 edit applies.
        assert wbs_report.versions[1].changed_nodes >= 2


class TestStoreRuns:
    def test_a_store_run_reports_its_store_counts(self, tmp_path):
        path = str(tmp_path / "WBS.jsonl")
        cold = VersionHistoryRunner(wbs_artifact(), store_path=path).run()
        assert cold.cache["store_loaded"] == 0
        assert cold.cache["store_skipped"] == 0
        assert cold.cache["store_dumped"] > 0
        assert cold.cache["store_hits"] == 0
        assert cold.cache["store_path"] == path
        assert not any(name.startswith("costmodel") for name in cold.cache)

        warm = VersionHistoryRunner(wbs_artifact(), store_path=path).run()
        assert warm.cache["store_loaded"] == cold.cache["store_dumped"]
        assert warm.cache["store_dumped"] == cold.cache["store_dumped"]
        assert warm.cache["store_hits"] > 0
        assert warm.cache["adopted"] == warm.cache["store_loaded"]

    @pytest.mark.parametrize("with_store", [True, False])
    def test_load_cost_model_into_is_called_once_per_store_run(
        self, tmp_path, monkeypatch, with_store
    ):
        """The benchmark's ledger times this call on every store resume."""
        from repro.parallel.store import PersistentSummaryStore

        calls = []
        original = PersistentSummaryStore.load_cost_model_into

        def counted(store):
            calls.append(store.path)
            return original(store)

        monkeypatch.setattr(PersistentSummaryStore, "load_cost_model_into", counted)
        path = str(tmp_path / "WBS.jsonl") if with_store else None
        report = VersionHistoryRunner(wbs_artifact(), store_path=path).run()
        assert calls == ([path] if with_store else [])
        assert ("store_loaded" in report.cache) is with_store
