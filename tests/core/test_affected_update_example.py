"""The affected-location computation on the paper's running example.

These tests reproduce §3.2's worked example and the Fig. 5(b) fixed-point
trace: for the change ``PedalPos == 0`` -> ``PedalPos <= 0`` the final sets
must be ACN = {n0, n2, n10, n12} and AWN = {n1, n3, n4, n5, n11, n13, n14}.
"""

import pytest

from repro.core.affected import AffectedLocationAnalysis
from repro.core.dise import DiSE


@pytest.fixture
def update_static(update_base, update_modified):
    return DiSE(update_base, update_modified, procedure_name="update").compute_affected()


@pytest.fixture
def update_static_strict(update_base, update_modified):
    dise = DiSE(
        update_base,
        update_modified,
        procedure_name="update",
        forward_writes=False,
        record_trace=True,
    )
    return dise.compute_affected()


class TestFinalSets:
    def test_acn_matches_paper(self, update_static):
        acn, _ = update_static.affected.names()
        assert acn == ("n0", "n2", "n10", "n12")

    def test_awn_matches_paper(self, update_static):
        _, awn = update_static.affected.names()
        assert awn == ("n1", "n3", "n4", "n5", "n11", "n13", "n14")

    def test_strict_paper_rules_give_identical_sets_here(
        self, update_static, update_static_strict
    ):
        # the example has no write-to-write chains, so the extension rule is a no-op
        assert update_static.affected.names() == update_static_strict.affected.names()

    def test_affected_count_is_eleven(self, update_static):
        assert update_static.affected.count() == 11

    def test_bswitch_chain_is_unaffected(self, update_static):
        unaffected = {6, 7, 8, 9}
        affected_ids = update_static.affected.acn | update_static.affected.awn
        assert unaffected.isdisjoint(affected_ids)


class TestFigure5bTrace:
    """The rule-application trace must follow the paper's Fig. 5(b) table."""

    def test_initial_row(self, update_static_strict):
        trace = update_static_strict.affected.trace
        assert trace[0].acn == ("n0",)
        assert trace[0].awn == ()
        assert trace[0].rule == ""

    def test_first_rule_applications_match_paper(self, update_static_strict):
        """The first applications follow the paper's demonstration (Fig. 5(b))."""
        trace = update_static_strict.affected.trace
        applications = [(row.source, row.target, row.rule) for row in trace[1:]]
        assert applications[:2] == [
            ("n0", "n2", "Eq. (1)"),
            ("n0", "n1", "Eq. (2)"),
        ]

    def test_rule_applications_match_paper_up_to_order(self, update_static_strict):
        """Fig. 5(b) up to application order: exactly the paper's ten rule
        applications occur (the fixed point is order-insensitive, and the
        paper's table shows one valid interleaving)."""
        trace = update_static_strict.affected.trace
        applications = {(row.source, row.target, row.rule) for row in trace[1:]}
        assert applications == {
            ("n0", "n2", "Eq. (1)"),
            ("n0", "n1", "Eq. (2)"),
            ("n2", "n3", "Eq. (2)"),
            ("n2", "n4", "Eq. (2)"),
            ("n1", "n10", "Eq. (3)"),
            ("n10", "n11", "Eq. (2)"),
            ("n1", "n12", "Eq. (3)"),
            ("n12", "n13", "Eq. (2)"),
            ("n12", "n14", "Eq. (2)"),
            ("n5", "n10", "Eq. (4)"),
        }
        assert len(trace) == 11  # initial row + ten applications

    def test_rule4_application_is_last_and_matches_paper(self, update_static_strict):
        last = update_static_strict.affected.trace[-1]
        assert (last.source, last.target, last.rule) == ("n5", "n10", "Eq. (4)")

    def test_final_trace_row_matches_final_sets(self, update_static_strict):
        final = update_static_strict.affected.trace[-1]
        acn, awn = update_static_strict.affected.names()
        assert final.acn == acn
        assert final.awn == awn

    def test_trace_sets_grow_monotonically(self, update_static_strict):
        trace = update_static_strict.affected.trace
        for previous, current in zip(trace, trace[1:]):
            assert set(previous.acn) <= set(current.acn)
            assert set(previous.awn) <= set(current.awn)


class TestNoChange:
    def test_identical_versions_have_empty_affected_sets(self, update_base):
        dise = DiSE(update_base, update_base, procedure_name="update")
        static = dise.compute_affected()
        assert static.affected.is_empty()
        assert static.affected.count() == 0


class TestSeedingDirect:
    def test_manual_seed_reproduces_pipeline_result(self, update_static, update_modified_cfg):
        analysis = AffectedLocationAnalysis(update_modified_cfg)
        sets = analysis.compute(seed_conditionals=[update_modified_cfg.node(0)])
        assert sets.names() == update_static.affected.names()

    def test_empty_seed_yields_empty_sets(self, update_modified_cfg):
        analysis = AffectedLocationAnalysis(update_modified_cfg)
        sets = analysis.compute()
        assert sets.is_empty()
        assert sets.trace[0].acn == ()
