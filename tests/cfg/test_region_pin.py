"""Every region signature of the artifact corpus, pinned.

Each version of the ASW, WBS, OAE, ASW-CALLS and FCS histories is parsed and
its CFG built.  Every node's suffix signature and segment signature (``None``
where the node has no segment) feed one SHA-256 digest per history: the
region digest, ``boundary_id``, ``canonical_ids``, ``index`` and the three
variable tuples.

A hand-built graph adds the two cases no source program lowers to: a node
with two out-edges of one label, and a segment whose walk passes a node
below its root's call depth (which makes the segment ``None``).

The region digest is the summary cache's key and the persistent store's
file content, so a change to how regions are hashed must leave every field
as it was.  A change that means to move them re-records the constants and
says why.
"""

import hashlib

import pytest

from repro.artifacts import all_artifacts, interproc_artifacts
from repro.cfg.builder import build_cfg
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.ir import NodeKind
from repro.lang.parser import parse_program

PINNED = {
    "ASW": (608, "b3ec3f53592973b5cdad293afada56da0cf039c51f65079d841c074b0866f4f1"),
    "WBS": (412, "d5d16886afdd123bafe0c9b8e3659abc3723a0cb00f811b28ecb988156ef18e7"),
    "OAE": (522, "ff4d700fe85cd41e980df5d6b13c4c28464cb4d3bfc94f4f021603299f5f7bd3"),
    "ASW-CALLS": (387, "0d9bfc41bea0be329e5b65a14994b3f86ed43421f9f48cb59050b139554672a1"),
    "FCS": (756, "e97c4ebbaf39267381910e50b791473b52339894aaf30f3e69d5d802f6046dc4"),
}
HAND_BUILT_PIN = (11, "fe2c6d5374c6f54c4571bc158c2d01c94773eee41b8b87824200caecd146e01a")


def _fields(signature):
    if signature is None:
        return None
    return (
        signature.digest,
        signature.boundary_id,
        signature.canonical_ids,
        sorted(signature.index.items()),
        signature.used_vars,
        signature.write_only_vars,
        signature.decision_vars,
    )


def regions_digest(cfgs):
    """Digest every suffix and segment signature of every CFG of ``cfgs``."""
    digest = hashlib.sha256()
    regions = 0
    for cfg in cfgs:
        for node in cfg.nodes:
            suffix = cfg.regions.signature(node)
            segment = cfg.regions.segment(node)
            digest.update(repr((node.node_id, _fields(suffix), _fields(segment))).encode())
            regions += 1 + (segment is not None)
    return regions, digest.hexdigest()


def history_digest(artifact):
    return regions_digest(
        build_cfg(parse_program(source), artifact.procedure_name)
        for _, _, _, source in artifact.history()
    )


def hand_built_cfg():
    """begin -> A; A -true-> C; A -false-> B -> E1; C -> E1 | E2 (both
    unlabelled) -> J -> end.  A and C sit at call depth 1, B at depth 0.

    A's walk reaches E1 through B before it expands C, so C's tied targets
    are found out of their insertion order."""
    cfg = ControlFlowGraph("hand_built")
    begin = cfg.new_node(NodeKind.BEGIN)
    a = cfg.new_node(NodeKind.BRANCH, call_depth=1)
    b = cfg.new_node(NodeKind.NOP)
    c = cfg.new_node(NodeKind.NOP, call_depth=1)
    e1 = cfg.new_node(NodeKind.ASSIGN, target="x", call_depth=1)
    e2 = cfg.new_node(NodeKind.ASSIGN, target="y", call_depth=1)
    j = cfg.new_node(NodeKind.NOP, call_depth=1)
    end = cfg.new_node(NodeKind.END)
    cfg.add_edge(begin, a)
    cfg.add_edge(a, c, "true")
    cfg.add_edge(a, b, "false")
    cfg.add_edge(b, e1)
    cfg.add_edge(c, e1)
    cfg.add_edge(c, e2)
    cfg.add_edge(e1, j)
    cfg.add_edge(e2, j)
    cfg.add_edge(j, end)
    return cfg


ARTIFACTS = [*all_artifacts(), *interproc_artifacts()]


@pytest.mark.parametrize("artifact", ARTIFACTS, ids=lambda artifact: artifact.name)
def test_history_region_signatures_as_pinned(artifact):
    assert history_digest(artifact) == PINNED[artifact.name]


def test_hand_built_region_signatures_as_pinned():
    cfg = hand_built_cfg()
    # A's boundary J shares A's call depth, but the walk passes B below it.
    assert cfg.post_dominance.immediate_post_dominator(cfg.node(0)) is cfg.node(5)
    assert cfg.regions.segment(cfg.node(0)) is None
    assert regions_digest([cfg]) == HAND_BUILT_PIN
