"""Unit coverage for the deterministic fault-injection registry."""

import pytest

from repro import faults, obs
from repro.faults import FAULT_SITES, FaultPlan, parse_spec, plan_from_env


class TestSpecParsing:
    def test_full_spec_round_trip(self):
        plan = parse_spec("seed:6,torn:0.3,corrupt:0.2")
        assert plan.seed == 6
        assert plan.rates == {"torn-store-write": 0.3, "corrupt-frame": 0.2}

    def test_canonical_names_accepted(self):
        plan = parse_spec("torn-store-write:0.5,corrupt-frame:0.25")
        assert plan.rates == {"torn-store-write": 0.5, "corrupt-frame": 0.25}

    def test_empty_items_tolerated(self):
        plan = parse_spec("seed:1,,torn:0.5,")
        assert plan.seed == 1
        assert plan.rates == {"torn-store-write": 0.5}

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="Unknown fault site"):
            parse_spec("seed:1,frobnicate:0.5")

    @pytest.mark.parametrize(
        "spec", ["crash:0.3", "hang:0.1", "kill:0.1", "timeout:0.2", "hang_seconds:1.5"]
    )
    def test_removed_sites_rejected(self, spec):
        with pytest.raises(ValueError, match="Unknown fault site"):
            parse_spec(spec)

    def test_malformed_item_rejected(self):
        with pytest.raises(ValueError, match="Malformed fault spec"):
            parse_spec("seed")

    def test_plan_constructor_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="Unknown fault site"):
            FaultPlan(rates={"nonsense": 1.0})

    def test_plan_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert plan_from_env() is None
        assert plan_from_env(default="seed:3,torn:0.1").seed == 3
        monkeypatch.setenv("REPRO_FAULTS", "seed:9,corrupt:0.4")
        plan = plan_from_env(default="seed:3,torn:0.1")
        assert plan.seed == 9
        assert plan.rates == {"corrupt-frame": 0.4}


class TestDeterminism:
    def test_rolls_are_pure_in_seed_site_ident(self):
        a = FaultPlan(seed=6)
        b = FaultPlan(seed=6)
        for site in FAULT_SITES:
            assert a.roll(site, "entry0:abc") == b.roll(site, "entry0:abc")
        assert FaultPlan(seed=7).roll("corrupt-frame", "entry0:abc") != a.roll(
            "corrupt-frame", "entry0:abc"
        )

    def test_idents_draw_independent_rolls(self):
        plan = FaultPlan(seed=0, rates={"corrupt-frame": 0.5})
        outcomes = {plan.fires("corrupt-frame", f"entry{index}:d") for index in range(8)}
        assert outcomes == {True, False}

    def test_rate_bounds(self):
        always = FaultPlan(seed=1, rates={"torn-store-write": 1.0})
        never = FaultPlan(seed=1, rates={"torn-store-write": 0.0})
        for ident in ("a", "b", "c", "d"):
            assert always.fires("torn-store-write", ident)
            assert not never.fires("torn-store-write", ident)


class TestGating:
    def test_every_site_fires_in_process(self):
        plan = FaultPlan(seed=1, rates={site: 1.0 for site in FAULT_SITES})
        assert plan.fires("torn-store-write", "x")
        assert plan.fires("corrupt-frame", "x")

    def test_injected_installs_and_restores(self):
        assert faults.active_plan() is None
        plan = FaultPlan(seed=2)
        with faults.injected(plan):
            assert faults.active_plan() is plan
            inner = FaultPlan(seed=3)
            with faults.injected(inner):
                assert faults.active_plan() is inner
            assert faults.active_plan() is plan
        assert faults.active_plan() is None

    def test_suspended_silences_the_active_plan(self):
        plan = FaultPlan(seed=1, rates={"corrupt-frame": 1.0})
        with faults.injected(plan):
            assert faults.fires("corrupt-frame", "x")
            with faults.suspended():
                assert not faults.fires("corrupt-frame", "x")
                with faults.suspended():  # nests
                    assert not faults.fires("corrupt-frame", "x")
                assert not faults.fires("corrupt-frame", "x")
            assert faults.fires("corrupt-frame", "x")

    def test_fired_faults_land_in_the_active_trace(self, tmp_path):
        from repro.artifacts.simple import update_modified_program
        from repro.parallel.store import PersistentSummaryStore
        from repro.symexec.engine import symbolic_execute
        from repro.symexec.summary_cache import SummaryCache

        cache = SummaryCache()
        symbolic_execute(update_modified_program(), procedure_name="update", summary_cache=cache)
        plan = FaultPlan(seed=6, rates={"corrupt-frame": 1.0})
        with obs.recording("chaos") as recorder:
            with faults.injected(plan):
                PersistentSummaryStore(str(tmp_path / "store.json")).dump(cache)
        corrupt = [e for e in recorder.events if e["name"] == "fault.corrupt-frame"]
        assert 0 < len(corrupt) <= len(cache)
        assert all(e["category"] == "fault" and e["process"] == "main" for e in corrupt)

    def test_suspended_without_a_plan_is_a_noop(self):
        with faults.suspended():
            assert faults.active_plan() is None
