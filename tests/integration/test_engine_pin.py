"""The engine's outputs, pinned byte for byte.

Every adjacent version pair of the WBS and ASW-CALLS histories runs cold, as
perfbench's pairs-cold workload does: a DiSE run of the pair and a full
symbolic execution of the modified version, each with a fresh solver.  Every
``SymbolicExecutor.run`` of both legs feeds one SHA-256 digest: each record
in emission order (path condition, trace, final environment, error flag),
then every :class:`ExecutionStatistics` field but ``elapsed_seconds``.  A
``build_tree=True`` run of the ASW-CALLS base is pinned by its tree's shape:
the node count and the edge labels of each level.

``PINNED`` was last re-recorded when the lookahead began answering a query
whose targets all lie before its first branch from the CFG alone: such a
query no longer walks, so the DiSE legs' ``lookahead_walk_memo_hits``,
``lookahead_prefix_syncs`` and ``lookahead_prefix_reuses`` read lower.
Every record and every other field stayed as it was.

A change to how the engine steps through states must leave all of it as it
was.  A change that means to move it re-records the constants and says why.
"""

import hashlib

import pytest

from repro.artifacts import all_artifacts, interproc_artifacts
from repro.core.dise import DiSE
from repro.lang.parser import parse_program
from repro.solver.core import ConstraintSolver
from repro.symexec.engine import SymbolicExecutor, symbolic_execute

PINNED = {
    "WBS": (30, "51f806f07f8406906864e192255844baf8dc39a6fd5f694d3c034c7ff2cab930"),
    "ASW-CALLS": (15, "cc5d64262ab57c6514992c43d0e4af9dcce9e857681c7c66a691c3bae904beb0"),
}

TREE_PIN = (195, "c5bb2043caa4a76a150849cd01159fa4c0111969240238dcba1f7a400edc3e8b")


def artifact_named(name):
    artifacts = (*all_artifacts(), *interproc_artifacts())
    return next(artifact for artifact in artifacts if artifact.name == name)


def run_digest(digest, result) -> None:
    """Feed one run's records, in order, and its statistics to ``digest``."""
    for record in result.summary.records:
        environment = tuple((name, str(term)) for name, term in record.final_environment)
        digest.update(
            repr((str(record.path_condition), record.trace, environment, record.is_error)).encode()
        )
    statistics = result.statistics.as_dict()
    del statistics["elapsed_seconds"]
    digest.update(repr(sorted(statistics.items())).encode())


def tree_shape(tree):
    """The node count and the edge labels of each level of ``tree``."""
    level, shape = [tree.root], []
    while level:
        shape.append((len(level), tuple(node.edge_label for node in level)))
        level = [child for node in level for child in node.children]
    return shape


def cold_pairs_digest(artifact, monkeypatch):
    """Run ``artifact``'s adjacent pairs cold; digest every engine run."""
    digest = hashlib.sha256()
    runs = [0]
    run = SymbolicExecutor.run

    def digesting_run(self):
        result = run(self)
        run_digest(digest, result)
        runs[0] += 1
        return result

    monkeypatch.setattr(SymbolicExecutor, "run", digesting_run)
    history = artifact.history()
    for (_, _, _, base_source), (_, _, _, modified_source) in zip(history, history[1:]):
        base = parse_program(base_source)
        modified = parse_program(modified_source)
        procedure = artifact.procedure_name
        DiSE(base, modified, procedure_name=procedure, solver=ConstraintSolver()).run()
        symbolic_execute(modified, procedure_name=procedure, solver=ConstraintSolver())
    return runs[0], digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cold_pairs_run_as_pinned(name, monkeypatch):
    assert cold_pairs_digest(artifact_named(name), monkeypatch) == PINNED[name]


def test_tree_shape_as_pinned():
    artifact = artifact_named("ASW-CALLS")
    _, _, _, source = artifact.history()[0]
    result = symbolic_execute(
        parse_program(source), procedure_name=artifact.procedure_name, build_tree=True
    )
    digest = hashlib.sha256()
    run_digest(digest, result)
    digest.update(repr(tree_shape(result.tree)).encode())
    assert (result.tree.count(), digest.hexdigest()) == TREE_PIN
