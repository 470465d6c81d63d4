"""Content hashing of CFG suffix regions (cross-version summary cache keys).

A node's *region* is the set of nodes reachable from it (its CFG suffix,
including the node itself).  The cross-version summary cache
(:mod:`repro.symexec.summary_cache`) replays previously executed subtrees
whenever a later program version contains a structurally identical region,
so the region identity must be a pure function of the region's *content* --
node behaviours, edge labels and referenced variables -- and never of the
incidental integer node ids a particular parse happened to assign (an edit
upstream of an unchanged suffix shifts every node id).

A region is renumbered by a deterministic depth-first traversal (successors
ordered by edge label), and its digest hashes the ``repr`` of the list of
``(canonical index, structural key, labelled successor indices)`` triples.
Two regions receive the same digest iff their IR is identical up to node
renaming; the canonical index maps allow a cached subtree recorded against
one version's node ids to be replayed onto another version's ids.

Two region granularities are hashed:

* the **suffix region** of a node (everything reachable from it), which
  backs whole-subtree replay -- maximal savings, but an edit anywhere
  downstream changes the digest;
* the **segment** from a node to its immediate post-dominator (exclusive),
  which backs composable partial replay: an edit near the procedure exit
  leaves every upstream segment's digest intact, so the unchanged diamonds
  still replay even though all suffix regions contain the edit.

A CFG's :class:`RegionHashIndex` computes every node's *local facts* once,
on first use: its digest item as a ``%``-template whose only holes are
canonical indices (the ``repr`` of its structural key and edge labels is
encoded once), the node ids that fill those holes (its own, then its
successors' in label order, which is also the walk's order), its call
depth, its reads, condition reads and writes, and a call's ``(formal,
argument reads)`` pairs.  A region signature is then one walk over those
facts: the traversal yields the canonical order, and filling the visited
nodes' templates with the walk's canonical indices yields the digest text,
byte for byte the ``repr`` of the triple list.  A segment's walk also checks that it is
call-balanced.  The variable sets are unions of the visited nodes' facts.
What only some readers need is built when first read: the ``index`` map
(replay and the strategy tokens) and ``decision_vars`` (the lookahead).
"""

from __future__ import annotations

import hashlib
import sys
from functools import cached_property
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.cfg.graph import BEGIN_NODE_ID, END_NODE_ID, CFGAnalysis, ControlFlowGraph
from repro.cfg.ir import CFGNode, NodeKind

#: Canonical successor index standing for the segment boundary (the
#: immediate post-dominator, which is *not* part of the segment).
BOUNDARY_INDEX = -1

#: The call-depth fact of the END node: no segment rejects it (it is reached
#: only through assertion-failure escapes, which terminate without popping).
_ANY_DEPTH = sys.maxsize


class _Slot:
    """Stands for one ``%d`` hole while a digest item's template is built.

    Its ``repr`` is a NUL character, which no ``repr`` of a key's strings,
    ints or ``None`` can contain, so it marks exactly the holes.
    """

    def __repr__(self) -> str:
        return "\x00"


_SLOT = _Slot()


def _item_template(key: tuple, labels: Tuple[str, ...]) -> bytes:
    """``repr((position, key, ((label, index), ...)))`` in UTF-8, with the
    position and the indices left as ``%d`` holes."""
    text = repr((_SLOT, key, tuple([(label, _SLOT) for label in labels])))
    return text.replace("%", "%%").replace("\x00", "%d").encode("utf-8")


class _CFGFacts:
    """Every node's local facts (see the module docstring).

    Each fact is a list indexed by node id: statement nodes are numbered 0,
    1, 2, ... (:meth:`ControlFlowGraph.new_node`), and the END (-2) and
    BEGIN (-1) facts come last, where negative indices find them.  Lists
    take a fraction of the memory of id-keyed dicts.
    """

    def __init__(self, cfg: ControlFlowGraph):
        #: The node's digest item, and what fills its holes: the node itself,
        #: then its targets in label order.  Targets of one label come in
        #: reverse insertion order, so ``holes[1:]`` reversed is the walk's
        #: push order (a stack then pops them in label order, equal labels
        #: in insertion order).
        self.templates: List[bytes] = []
        self.holes: List[Tuple[int, ...]] = []
        #: Nodes with two out-edges of one label, whose digest pairs are
        #: ordered by canonical index too (never built from source).
        self.tied: Dict[int, Tuple[str, ...]] = {}
        self.depths: List[int] = []
        self.reads: List[Tuple[str, ...]] = []
        self.writes: List[Tuple[str, ...]] = []
        self.condition_reads: List[Tuple[str, ...]] = []
        #: ``(formal, argument reads)`` per ``CALL`` node.  Every other node
        #: assigns each name it writes from all of its reads.
        self.call_bindings: Dict[int, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {}
        for node_id in [*range(len(cfg) - 2), END_NODE_ID, BEGIN_NODE_ID]:
            node = cfg.node(node_id)
            edges = sorted(cfg.out_edges(node), key=lambda edge: edge.label, reverse=True)
            edges.reverse()
            labels = tuple([edge.label for edge in edges])
            self.templates.append(_item_template(node.structural_key(), labels))
            self.holes.append((node_id, *[edge.target for edge in edges]))
            if len(set(labels)) < len(labels):
                self.tied[node_id] = labels
            self.depths.append(_ANY_DEPTH if node.kind is NodeKind.END else node.call_depth)
            reads = node.used_variables()
            self.reads.append(reads)
            self.condition_reads.append(reads if node.kind is NodeKind.BRANCH else ())
            self.writes.append(node.defined_variables())
            if node.kind is NodeKind.CALL:
                # A call defines every formal from its own argument expression;
                # the per-parameter pairing keeps the decision closure tight.
                pairs = zip(node.call_params, node.call_args)
                self.call_bindings[node_id] = tuple([(p, arg.variables()) for p, arg in pairs])


class RegionSignature:
    """The canonical identity of one node's suffix region or segment.

    Attributes:
        root_id: node id of the region root in the owning CFG.
        digest: content hash of the region (hex); equal digests mean the
            regions are structurally identical up to node renumbering.
        canonical_ids: region node ids in canonical (deterministic DFS)
            order, so ``canonical_ids[i]`` is the node with canonical index
            ``i``.
        index: inverse map, node id -> canonical index, built on first read
            (most signatures only ever serve as invalidation digests).
        used_vars: sorted names of every variable *read* somewhere in the
            region (the symbolic environment restricted to these is what a
            subtree execution can observe).
        write_only_vars: sorted names of variables the region *defines* but
            never reads.  Their entry values cannot influence the subtree,
            but cached summaries store environment deltas relative to the
            recording root -- a write whose value happens to equal the
            root's is indistinguishable from no write, so replay is exact
            only when the entry values of written variables match too.
        boundary_id: for segments, the node id of the immediate
            post-dominator bounding the region (exclusive); ``None`` for
            suffix regions, which extend to the procedure exit.
    """

    __slots__ = (
        "root_id",
        "digest",
        "canonical_ids",
        "used_vars",
        "write_only_vars",
        "boundary_id",
        "_facts",
        "_index",
        "_decision_vars",
    )

    def __init__(
        self,
        root_id: int,
        digest: str,
        canonical_ids: Tuple[int, ...],
        used_vars: Tuple[str, ...],
        write_only_vars: Tuple[str, ...],
        boundary_id: Optional[int],
        facts: _CFGFacts,
    ):
        self.root_id = root_id
        self.digest = digest
        self.canonical_ids = canonical_ids
        self.used_vars = used_vars
        self.write_only_vars = write_only_vars
        self.boundary_id = boundary_id
        self._facts = facts
        self._index: Optional[Dict[int, int]] = None
        self._decision_vars: Optional[Tuple[str, ...]] = None

    def __len__(self) -> int:
        return len(self.canonical_ids)

    @property
    def index(self) -> Dict[int, int]:
        if self._index is None:
            self._index = dict(zip(self.canonical_ids, range(len(self.canonical_ids))))
        return self._index

    @property
    def decision_vars(self) -> Tuple[str, ...]:
        """Sorted names of the variables whose entry values can flow into
        some branch condition of the region, computed on first read (only
        the lookahead reads it).

        This is the backward closure of the condition reads through the
        region's assignments: a variable matters to control flow iff some
        chain of in-region assignments can carry its value into a branch
        condition (flow-insensitive, so a sound over-approximation of the
        influencers).  It is the (usually much smaller) environment slice
        that *control decisions* inside the region can observe: a variable
        that is only ever copied into pass-through writes (``alarmOut =
        alarm``) is in ``used_vars`` but not here.  The feasibility
        lookahead fingerprints its walk memo on this slice, which is what
        lets probes that differ only in data-flow the region never branches
        on share one walk.
        """
        if self._decision_vars is None:
            facts = self._facts
            assignment_reads: Dict[str, set] = {}
            for node_id in self.canonical_ids:
                bindings = facts.call_bindings.get(node_id)
                if bindings is None:
                    reads = facts.reads[node_id]
                    bindings = [(written, reads) for written in facts.writes[node_id]]
                for written, reads in bindings:
                    assignment_reads.setdefault(written, set()).update(reads)
            decision = set().union(*map(facts.condition_reads.__getitem__, self.canonical_ids))
            changed = True
            while changed:
                changed = False
                for target, reads in assignment_reads.items():
                    if target in decision and not reads <= decision:
                        decision |= reads
                        changed = True
            self._decision_vars = tuple(sorted(decision))
        return self._decision_vars


def _signature(
    regions: RegionHashIndex, root: CFGNode, boundary_id: Optional[int]
) -> Optional[RegionSignature]:
    """The signature of ``root``'s suffix (``boundary_id`` None) or segment.

    One walk over the CFG's facts.  Successors are visited in edge-label
    order -- any fixed order works as long as it only depends on labels,
    which makes the order independent of node ids and therefore stable
    across re-parses and upstream edits.  A segment seeds the walk's index
    with its boundary at :data:`BOUNDARY_INDEX`, so edges into it are hashed
    with that marker and the walk never enters it; it returns None when a
    node inside sits below the root's call depth (see
    :meth:`RegionHashIndex.segment`).
    """
    facts = regions.facts
    holes, depths = facts.holes, facts.depths
    if boundary_id is None:
        index: Dict[int, int] = {}
        floor = -1
    else:
        index = {boundary_id: BOUNDARY_INDEX}
        floor = root.call_depth
    order = []
    stack = [root.node_id]
    while stack:
        node_id = stack.pop()
        if node_id in index:
            continue
        if depths[node_id] < floor:
            return None
        index[node_id] = len(order)
        order.append(node_id)
        stack.extend(holes[node_id][:0:-1])
    # Every hole is a canonical index: the node's own (its position), then
    # its targets'.  Filling all templates at once keeps the per-node work
    # out of the interpreter.
    filled = list(map(index.__getitem__, chain.from_iterable(map(holes.__getitem__, order))))
    if facts.tied:
        _rank_ties(facts, order, filled)
    text = b", ".join(map(facts.templates.__getitem__, order)) % tuple(filled)
    digest = hashlib.blake2b(b"[" + text + b"]", digest_size=16).hexdigest()
    used = set().union(*map(facts.reads.__getitem__, order))
    written = set().union(*map(facts.writes.__getitem__, order))
    return RegionSignature(
        root.node_id,
        digest,
        tuple(order),
        tuple(sorted(used)),
        tuple(sorted(written - used)),
        boundary_id,
        facts,
    )


def _rank_ties(facts: _CFGFacts, order, filled: list) -> None:
    """Order each tied node's target indices as ``sorted`` orders its
    ``(label, index)`` pairs: by label, then by canonical index."""
    start = 0
    for node_id in order:
        end = start + len(facts.holes[node_id])
        labels = facts.tied.get(node_id)
        if labels is not None:
            ranked = sorted(zip(labels, filled[start + 1 : end]))
            filled[start + 1 : end] = [rank for _, rank in ranked]
        start = end


def region_signature(cfg: ControlFlowGraph, root: CFGNode) -> RegionSignature:
    """Compute the canonical signature of ``root``'s suffix region."""
    return _signature(cfg.regions, root, None)


class RegionHashIndex(CFGAnalysis):
    """Per-CFG memo of node facts and of suffix-region and segment signatures.

    A CFG's own index is ``cfg.regions``; the memo relies on the CFG not
    being mutated once hashing starts.
    """

    def __init__(self, cfg: ControlFlowGraph):
        super().__init__(cfg)
        self._signatures: Dict[int, RegionSignature] = {}
        self._segments: Dict[int, Optional[RegionSignature]] = {}

    @cached_property
    def facts(self) -> _CFGFacts:
        """Every node's local facts, computed by the first signature."""
        return _CFGFacts(self.cfg)

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
        segment is popped inside it too.  The static ``call_depth`` stamped
        by the flattening builder makes this local: boundary and root must
        sit at the same splice depth, neither may be a ``CALL_RETURN`` (the
        boundary's pop runs only *after* the boundary state is captured, and
        the state at such a root still carries the callee's frame), and no
        node the segment's walk visits may sit below the root's depth (the
        END node aside: it is reached only through assertion-failure
        escapes, which terminate execution at the ERROR node without
        popping, and is never part of a captured state).
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
        if (
            boundary.call_depth != node.call_depth
            or boundary.kind is NodeKind.CALL_RETURN
            or node.kind is NodeKind.CALL_RETURN
        ):
            return None
        return _signature(self, node, boundary.node_id)

    def all_digests(self) -> FrozenSet[str]:
        """Digests of every node's suffix region and segment (invalidation)."""
        digests = set()
        for node in self.cfg.nodes:
            digests.add(self.signature(node).digest)
            segment = self.segment(node)
            if segment is not None:
                digests.add(segment.digest)
        return frozenset(digests)
