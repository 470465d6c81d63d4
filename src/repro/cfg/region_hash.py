"""Content hashing of CFG suffix regions (cross-version summary cache keys).

A node's *region* is the set of nodes reachable from it (its CFG suffix,
including the node itself).  The cross-version summary cache
(:mod:`repro.symexec.summary_cache`) replays previously executed subtrees
whenever a later program version contains a structurally identical region,
so the region identity must be a pure function of the region's *content* --
node behaviours, edge labels and referenced variables -- and never of the
incidental integer node ids a particular parse happened to assign (an edit
upstream of an unchanged suffix shifts every node id).

:func:`region_signature` therefore renumbers the region by a deterministic
depth-first traversal (successors ordered by edge label) and hashes the
sequence of ``(canonical index, structural key, labelled successor
indices)`` triples.  Two regions receive the same digest iff their IR is
identical up to node renaming; the canonical index maps allow a cached
subtree recorded against one version's node ids to be replayed onto another
version's ids.

Two region granularities are hashed:

* the **suffix region** of a node (everything reachable from it), which
  backs whole-subtree replay -- maximal savings, but an edit anywhere
  downstream changes the digest;
* the **segment** from a node to its immediate post-dominator (exclusive),
  which backs composable partial replay: an edit near the procedure exit
  leaves every upstream segment's digest intact, so the unchanged diamonds
  still replay even though all suffix regions contain the edit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Optional, Tuple

from repro.cfg.graph import ControlFlowGraph
from repro.cfg.ir import CFGNode, NodeKind

#: Canonical successor index standing for the segment boundary (the
#: immediate post-dominator, which is *not* part of the segment).
BOUNDARY_INDEX = -1


@dataclass(frozen=True)
class RegionSignature:
    """The canonical identity of one node's suffix region.

    Attributes:
        root_id: node id of the region root in the owning CFG.
        digest: content hash of the region (hex); equal digests mean the
            regions are structurally identical up to node renumbering.
        nodes: region nodes in canonical (deterministic DFS) order, so
            ``nodes[i]`` is the node with canonical index ``i``.
        index: inverse map, node id -> canonical index.
        used_vars: sorted names of every variable *read* somewhere in the
            region (the symbolic environment restricted to these is what a
            subtree execution can observe).
        write_only_vars: sorted names of variables the region *defines* but
            never reads.  Their entry values cannot influence the subtree,
            but cached summaries store environment deltas relative to the
            recording root -- a write whose value happens to equal the
            root's is indistinguishable from no write, so replay is exact
            only when the entry values of written variables match too.
        decision_vars: sorted names of the variables whose entry values can
            flow into some branch condition of the region -- the backward
            closure of the condition reads through the region's assignments.
            This is the (usually much smaller) environment slice that
            *control decisions* inside the region can observe: a variable
            that is only ever copied into pass-through writes (``alarmOut =
            alarm``) is in ``used_vars`` but not here.  The feasibility
            lookahead fingerprints its walk memo on this slice, which is
            what lets probes that differ only in data-flow the region never
            branches on share one walk.
        boundary_id: for segments, the node id of the immediate
            post-dominator bounding the region (exclusive); ``None`` for
            suffix regions, which extend to the procedure exit.
    """

    root_id: int
    digest: str
    nodes: Tuple[CFGNode, ...]
    index: Dict[int, int]
    used_vars: Tuple[str, ...]
    write_only_vars: Tuple[str, ...] = ()
    decision_vars: Tuple[str, ...] = ()
    boundary_id: Optional[int] = None

    @property
    def node_ids(self) -> FrozenSet[int]:
        return frozenset(self.index)

    @cached_property
    def canonical_ids(self) -> Tuple[int, ...]:
        """Node ids in canonical order: ``canonical_ids[i]`` is ``nodes[i].node_id``."""
        return tuple([node.node_id for node in self.nodes])

    def __len__(self) -> int:
        return len(self.nodes)


def _canonical_order(
    index: RegionHashIndex, root: CFGNode, boundary_id: Optional[int]
) -> Tuple[CFGNode, ...]:
    """Region nodes of ``index.cfg`` in deterministic DFS pre-order
    (boundary excluded).

    Successors are visited in edge-label order -- any fixed order works as
    long as it only depends on labels, which makes the order independent of
    node ids and therefore stable across re-parses and upstream edits.
    """
    order = []
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node.node_id in seen:
            continue
        seen.add(node.node_id)
        order.append(node)
        for edge in index.ordered_edges(node):
            if edge.target == boundary_id or edge.target in seen:
                continue
            stack.append(index.cfg.node(edge.target))
    return tuple(order)


def _signature(
    region_index: RegionHashIndex, root: CFGNode, boundary_id: Optional[int]
) -> RegionSignature:
    nodes = _canonical_order(region_index, root, boundary_id)
    index = {node.node_id: position for position, node in enumerate(nodes)}
    used = set()
    defined = set()
    condition_reads = set()
    assignment_reads: Dict[str, set] = {}
    items = []
    # A suffix region *is* the reachable set, so every out-edge target is a
    # member and the boundary filter below can be skipped wholesale.
    is_suffix = boundary_id is None
    for position, node in enumerate(nodes):
        reads = node.used_variables()
        used.update(reads)
        if node.kind is NodeKind.BRANCH:
            condition_reads.update(reads)
        if node.kind is NodeKind.CALL:
            # A call defines every formal from its own argument expression;
            # the per-parameter pairing keeps the decision closure tight.
            for param, arg in zip(node.call_params, node.call_args):
                defined.add(param)
                assignment_reads.setdefault(param, set()).update(arg.variables())
        else:
            for written in node.defined_variables():
                defined.add(written)
                assignment_reads.setdefault(written, set()).update(reads)
        edges = region_index.ordered_edges(node)
        if is_suffix:
            pairs = [(edge.label, index[edge.target]) for edge in edges]
        else:
            pairs = [
                (edge.label, index.get(edge.target, BOUNDARY_INDEX))
                for edge in edges
                if edge.target in index or edge.target == boundary_id
            ]
        if len(pairs) > 1:
            pairs.sort()
        items.append((position, node.structural_key(), tuple(pairs)))
    digest = hashlib.blake2b(repr(items).encode("utf-8"), digest_size=16).hexdigest()
    # Backward closure of the condition reads through the region's
    # assignments: a variable matters to control flow iff some chain of
    # in-region assignments can carry its value into a branch condition.
    # (Flow-insensitive, so a sound over-approximation of the influencers.)
    decision = set(condition_reads)
    changed = True
    while changed:
        changed = False
        for target, reads in assignment_reads.items():
            if target in decision and not reads <= decision:
                decision |= reads
                changed = True
    return RegionSignature(
        root_id=root.node_id,
        digest=digest,
        nodes=nodes,
        index=index,
        used_vars=tuple(sorted(used)),
        write_only_vars=tuple(sorted(defined - used)),
        decision_vars=tuple(sorted(decision)),
        boundary_id=boundary_id,
    )


def region_signature(cfg: ControlFlowGraph, root: CFGNode) -> RegionSignature:
    """Compute the canonical signature of ``root``'s suffix region."""
    return _signature(cfg.regions, root, None)


def segment_signature(
    cfg: ControlFlowGraph, root: CFGNode, boundary: CFGNode
) -> RegionSignature:
    """Signature of the region from ``root`` to ``boundary`` (exclusive).

    ``boundary`` must post-dominate ``root``; edges crossing into it are
    hashed with a reserved marker index so the digest still pins where the
    segment exits, without depending on what lies beyond.
    """
    return _signature(cfg.regions, root, boundary.node_id)


class RegionHashIndex:
    """Per-CFG memo of suffix-region and segment signatures.

    A CFG's own index is ``cfg.regions``; the memo relies on the CFG not
    being mutated once hashing starts.
    """

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg
        self._signatures: Dict[int, RegionSignature] = {}
        self._segments: Dict[int, Optional[RegionSignature]] = {}
        self._edge_order: Dict[int, tuple] = {}

    def ordered_edges(self, node: CFGNode) -> tuple:
        """Out-edges of ``node`` sorted by label (descending), memoised.

        Every region containing ``node`` re-walks its out-edges, so an
        unmemoised sort costs O(regions x region size) per CFG.
        """
        edges = self._edge_order.get(node.node_id)
        if edges is None:
            edges = self._edge_order[node.node_id] = tuple(
                sorted(self.cfg.out_edges(node), key=lambda e: e.label, reverse=True)
            )
        return edges

    def signature(self, node: CFGNode) -> RegionSignature:
        cached = self._signatures.get(node.node_id)
        if cached is None:
            cached = _signature(self, node, None)
            self._signatures[node.node_id] = cached
        return cached

    def segment(self, node: CFGNode) -> Optional[RegionSignature]:
        """The node's segment signature, or None when it adds nothing.

        A segment is only useful when the immediate post-dominator exists
        and is not the exit node (otherwise the suffix region already covers
        it).  For ``CALL`` nodes the boundary is the matching
        ``CALL_RETURN``'s successor instead of the immediate post-dominator,
        which makes the segment exactly one *per-procedure call summary*:
        entry environment in, post-return environments out.

        Segments must additionally be **call-balanced**: the engine's replay
        materialises boundary states carrying the root state's call frames
        verbatim, which is only correct when every frame pushed inside the
        segment is popped inside it too.  Segments whose boundary sits at a
        different call depth than the root (or at an unexecuted
        ``CALL_RETURN``, whose pop has not happened yet when the boundary is
        reached) are rejected.
        """
        if node.node_id in self._segments:
            return self._segments[node.node_id]
        result = self._compute_segment(node)
        self._segments[node.node_id] = result
        return result

    def _compute_segment(self, node: CFGNode) -> Optional[RegionSignature]:
        if node.kind is NodeKind.CALL and node.return_node_id is not None:
            return_node = self.cfg.node(node.return_node_id)
            successors = self.cfg.successors(return_node)
            if not successors:
                return None
            boundary = successors[0]
            if boundary.kind is NodeKind.END:
                return None
        else:
            boundary = self.cfg.post_dominance.immediate_post_dominator(node)
            if boundary is None or boundary.kind is NodeKind.END:
                return None
        if not self._call_balanced(node, boundary):
            return None
        return _signature(self, node, boundary.node_id)

    def _call_balanced(self, root: CFGNode, boundary: CFGNode) -> bool:
        """Whether frames pushed between ``root`` and ``boundary`` all pop again.

        The static ``call_depth`` stamped by the flattening builder makes
        this a local check: boundary and root must sit at the same splice
        depth, the boundary must not be a ``CALL_RETURN`` (its pop runs only
        *after* the boundary state is captured), the root must not be one
        either (the state at it still carries the callee's frame), and no
        path inside the segment may escape below the root's depth.
        """
        if boundary.call_depth != root.call_depth:
            return False
        if boundary.kind is NodeKind.CALL_RETURN or root.kind is NodeKind.CALL_RETURN:
            return False
        for region_node in _canonical_order(self, root, boundary.node_id):
            if region_node.kind is NodeKind.END:
                # Reachable only through assertion-failure escapes, which
                # terminate execution at the ERROR node without popping;
                # the END node itself is never part of a captured state.
                continue
            if region_node.call_depth < root.call_depth:
                return False
        return True

    def all_digests(self) -> FrozenSet[str]:
        """Digests of every node's suffix region and segment (invalidation)."""
        digests = set()
        for node in self.cfg.nodes:
            digests.add(self.signature(node).digest)
            segment = self.segment(node)
            if segment is not None:
                digests.add(segment.digest)
        return frozenset(digests)
