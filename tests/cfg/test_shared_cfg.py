"""One CFG per parse, and each per-CFG analysis built once.

``build_cfg`` memoises its graph on the parse it was given, so the DiSE
run of a version, its full leg and the next pair's base all share one
graph, and the analyses on it (post-dominance, control dependence,
def/use, reachability, region hashes) are computed on first use and shared
too.
"""

import gc
import weakref

import pytest

from repro.artifacts import (
    all_artifacts,
    asw_calls_artifact,
    fcs_artifact,
    interproc_artifacts,
    update_modified_program,
    wbs_artifact,
)
from repro.artifacts.simple import UPDATE_BASE_SOURCE, UPDATE_MODIFIED_SOURCE
from repro.cfg import builder, control_dependence, dataflow, dominance, region_hash
from repro.cfg.builder import build_cfg
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.ir import NodeKind
from repro.core.affected import AffectedLocationAnalysis
from repro.core.dise import DiSE
from repro.evolution.history import VersionHistoryRunner
from repro.lang.parser import parse_program
from repro.symexec.engine import symbolic_execute


def count_calls(monkeypatch, cls, name):
    """Wrap ``cls.name`` to record each call's ``self``; returns the list."""
    calls = []
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


class TestOneCfgPerParse:
    def test_same_parse_same_graph(self):
        program = update_modified_program()
        assert build_cfg(program, "update") is build_cfg(program, "update")
        # The first procedure is the default entry.
        assert build_cfg(program) is build_cfg(program, "update")
        procedure = program.procedure("update")
        assert build_cfg(procedure) is build_cfg(procedure)

    def test_two_parses_get_distinct_graphs(self):
        first = parse_program(UPDATE_MODIFIED_SOURCE)
        second = parse_program(UPDATE_MODIFIED_SOURCE)
        assert build_cfg(first, "update") is not build_cfg(second, "update")

    def test_program_and_bare_procedure_keep_their_own_graphs(self):
        program = update_modified_program()
        assert build_cfg(program, "update") is not build_cfg(program.procedure("update"))


class TestLazyAnalyses:
    @pytest.mark.parametrize(
        "attribute, cls",
        [
            ("post_dominance", dominance.PostDominance),
            ("control_dependence", control_dependence.ControlDependence),
            ("def_use", dataflow.DefUse),
            ("reachability", dataflow.Reachability),
            ("regions", region_hash.RegionHashIndex),
        ],
    )
    def test_built_once_per_cfg(self, monkeypatch, attribute, cls):
        built = count_calls(monkeypatch, cls, "__init__")
        cfg = build_cfg(parse_program(UPDATE_MODIFIED_SOURCE), "update")
        first = getattr(cfg, attribute)
        assert getattr(cfg, attribute) is first
        # Every consumer reads the graph's own instance.
        region_hash.region_signature(cfg, cfg.begin)
        cfg.regions.all_digests()
        AffectedLocationAnalysis(cfg).compute(cfg.branch_nodes()[:1])
        assert len(built) == 1
        assert built[0] is first

    def test_adding_a_node_or_an_edge_drops_them(self):
        cfg = ControlFlowGraph("p")
        begin = cfg.new_node(NodeKind.BEGIN)
        end = cfg.new_node(NodeKind.END)
        cfg.add_edge(begin, end)

        def analyses():
            return (
                cfg.post_dominance,
                cfg.control_dependence,
                cfg.def_use,
                cfg.reachability,
                cfg.regions,
                cfg.branch_free_closure,
            )

        before = analyses()
        middle = cfg.new_node(NodeKind.NOP)
        after_node = analyses()
        assert all(old is not new for old, new in zip(before, after_node))
        cfg.add_edge(begin, middle)
        cfg.add_edge(middle, end)
        after_edge = analyses()
        assert all(old is not new for old, new in zip(after_node, after_edge))
        assert middle.node_id in cfg.reachability.reachable_ids(begin)


class TestBaseCfgIsAnalysedOnlyForRemovals:
    """The removed-node fixed point is the only reader of the base CFG's
    analyses, and it runs only when a removed branch or write seeds it."""

    ANALYSES = (
        dominance.PostDominance,
        control_dependence.ControlDependence,
        dataflow.DefUse,
        dataflow.Reachability,
    )

    def analyses_of_base(self, monkeypatch, run):
        """Run ``run()``; return its result and how many of each analysis it built on the base CFG."""
        built = [count_calls(monkeypatch, cls, "__init__") for cls in self.ANALYSES]
        result = run()
        cfg_base = result.diff_map.cfg_base
        return result, [sum(analysis.cfg is cfg_base for analysis in calls) for calls in built]

    def test_a_pair_without_removals_leaves_the_base_unanalysed(self, monkeypatch):
        base, modified = parse_program(UPDATE_BASE_SOURCE), parse_program(UPDATE_MODIFIED_SOURCE)
        result, counts = self.analyses_of_base(
            monkeypatch, DiSE(base, modified, procedure_name="update").run
        )
        assert counts == [0, 0, 0, 0]
        effects = result.removed_effects
        assert effects.is_empty() and effects.base_affected.is_empty()
        assert effects.base_affected.trace == []
        assert effects.base_affected.cfg is result.diff_map.cfg_base
        assert result.affected.names() == (
            ("n0", "n2", "n10", "n12"),
            ("n1", "n3", "n4", "n5", "n11", "n13", "n14"),
        )

    @pytest.mark.parametrize(
        "artifact", [*all_artifacts(), *interproc_artifacts()], ids=lambda artifact: artifact.name
    )
    def test_history_pairs_analyse_the_base_only_for_removals(self, monkeypatch, artifact):
        history = artifact.history()
        removals = 0
        for (_, _, _, base), (_, _, _, modified) in zip(history, history[1:]):
            dise = DiSE(
                parse_program(base), parse_program(modified), procedure_name=artifact.procedure_name
            )
            static, counts = self.analyses_of_base(monkeypatch, dise.compute_affected)
            monkeypatch.undo()
            seeded = any(n.is_branch or n.is_write for n in static.diff_map.removed_base_nodes())
            assert counts == ([1, 1, 1, 1] if seeded else [0, 0, 0, 0])
            if not seeded:
                assert static.removed_effects.is_empty()
                assert static.removed_effects.base_affected.is_empty()
            removals += seeded
        assert removals == {"ASW": 1, "WBS": 1, "OAE": 1}.get(artifact.name, 0)

    def test_a_removal_still_analyses_the_base(self, monkeypatch):
        """WBS v9 -> v10 removes the write ``press = (press + 1)``."""
        artifact = wbs_artifact()
        dise = DiSE(
            artifact.version_program("v9"),
            artifact.version_program("v10"),
            procedure_name=artifact.procedure_name,
        )
        static, counts = self.analyses_of_base(monkeypatch, dise.compute_affected)
        assert counts == [1, 1, 1, 1]
        effects = static.removed_effects
        assert effects.base_affected.names() == (
            ("n6", "n10"),
            ("n1", "n3", "n4", "n5", "n7", "n8", "n9", "n11", "n12"),
        )
        assert [n.name for n in effects.mod_conditionals] == ["n5", "n9"]
        assert [n.name for n in effects.mod_writes] == [
            "n1", "n3", "n4", "n6", "n7", "n8", "n10", "n11",
        ]


class TestDroppedCfgIsFreedByReferenceCounting:
    """Every memoised analysis holds its CFG weakly, so a graph and its
    analyses form no reference cycle: dropping the parse frees them at once,
    without the cyclic garbage collector."""

    @pytest.fixture
    def no_collector(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    @pytest.mark.parametrize(
        "attribute",
        ["post_dominance", "control_dependence", "def_use", "reachability", "regions",
         "step_targets", "branch_free_closure"],
    )
    def test_each_analysis(self, no_collector, attribute):
        program = parse_program(asw_calls_artifact().history()[0][3])
        cfg = build_cfg(program, "altitude")
        analysis = getattr(cfg, attribute)
        if attribute == "regions":
            analysis.all_digests()  # every signature, its facts and segments
        dropped = weakref.ref(cfg)
        del cfg, program, analysis
        assert dropped() is None

    def test_after_dise_and_full_runs(self, no_collector):
        history = asw_calls_artifact().history()
        base, modified = (parse_program(source) for _, _, _, source in history[:2])
        dropped = weakref.ref(build_cfg(modified, "altitude"))
        DiSE(base, modified, procedure_name="altitude").run()
        symbolic_execute(modified, procedure_name="altitude")
        del base, modified
        assert dropped() is None


class TestWarmHistoryBuildsEachCfgOnce:
    @pytest.mark.parametrize(
        "artifact", [asw_calls_artifact(), fcs_artifact()], ids=lambda artifact: artifact.name
    )
    def test_each_parse_and_procedure_is_built_once(self, monkeypatch, artifact):
        builds = count_calls(monkeypatch, builder.CFGBuilder, "build")
        post_dominators = count_calls(monkeypatch, dominance.PostDominance, "__init__")
        indexes = count_calls(monkeypatch, region_hash.RegionHashIndex, "__init__")
        dependences = count_calls(monkeypatch, control_dependence.ControlDependence, "__init__")
        def_uses = count_calls(monkeypatch, dataflow.DefUse, "__init__")
        VersionHistoryRunner(artifact, include_full=True).run()
        # The builders hold their parses, so no id is reused.
        keys = [(id(b.program or b.procedure), b.procedure.name) for b in builds]
        assert builds and len(keys) == len(set(keys))
        graphs = {id(b.cfg) for b in builds}
        for analyses in (post_dominators, indexes, dependences, def_uses):
            assert analyses
            assert len({id(a.cfg) for a in analyses}) == len(analyses)
            assert {id(a.cfg) for a in analyses} <= graphs
