"""Post-dominance analysis (paper Definition 3.8).

``postDom(ni, nj)`` is true when every CFG path from ``ni`` to the exit node
passes through ``nj``.  The relation is reflexive (a node post-dominates
itself), matching the paper's example where ``postDom(n1, n1)`` is true.

The analysis is the classic iterative data-flow formulation over the reversed
CFG: ``pdom(n) = {n} ∪ ⋂ pdom(s) for successors s of n``, seeded with the
full node set and iterated to a fixed point.  Each set is one Python-int
bitmask, bit ``i`` standing for the ``i``-th node of ``cfg.nodes``, and each
sweep visits the nodes in reverse order, so a graph without loops settles in
one sweep (plus the one that confirms it).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.cfg.graph import CFGAnalysis, ControlFlowGraph
from repro.cfg.ir import CFGNode


class PostDominance(CFGAnalysis):
    """Post-dominator sets for every node of a CFG."""

    def __init__(self, cfg: ControlFlowGraph):
        super().__init__(cfg)
        if cfg.end is None:
            raise ValueError("CFG has no end node")
        nodes = cfg.nodes
        #: Node id of each bit position, and the bit of each node id.
        self._ids: List[int] = [node.node_id for node in nodes]
        self._bit: Dict[int, int] = {node_id: 1 << i for i, node_id in enumerate(self._ids)}
        exit_id, full = cfg.end.node_id, (1 << len(nodes)) - 1
        pdom = {node_id: full for node_id in self._ids}
        pdom[exit_id] = self._bit[exit_id]
        sweep = [
            (node.node_id, self._bit[node.node_id], [s.node_id for s in cfg.successors(node)])
            for node in reversed(nodes)
            if node.node_id != exit_id
        ]
        changed = True
        while changed:
            changed = False
            for node_id, own, successors in sweep:
                # Only a node without successors (not well formed) meets nothing.
                meet = full if successors else 0
                for successor in successors:
                    meet &= pdom[successor]
                meet |= own
                if meet != pdom[node_id]:
                    pdom[node_id] = meet
                    changed = True
        #: Each node's post-dominator set as a bitmask.
        self.masks: Dict[int, int] = pdom

    def ids(self, mask: int) -> List[int]:
        """The node ids whose bits are set in ``mask``, in ``cfg.nodes`` order."""
        ids, result = self._ids, []
        while mask:
            low = mask & -mask
            result.append(ids[low.bit_length() - 1])
            mask ^= low
        return result

    def post_dominators(self, node: CFGNode) -> FrozenSet[int]:
        """The identifiers of all nodes that post-dominate ``node``."""
        return frozenset(self.ids(self.masks[node.node_id]))

    def post_dominates(self, first: CFGNode, second: CFGNode) -> bool:
        """``postDom(first, second)``: does ``second`` post-dominate ``first``?"""
        return bool(self.masks[first.node_id] & self._bit[second.node_id])

    def immediate_post_dominator(self, node: CFGNode) -> Optional[CFGNode]:
        """The unique closest strict post-dominator of ``node`` (None for the exit).

        It is the strict post-dominator whose own set is the strict set of
        ``node``: every other strict post-dominator post-dominates it, and
        its set has exactly one member fewer than ``node``'s.
        """
        strict = self.masks[node.node_id] & ~self._bit[node.node_id]
        for candidate_id in self.ids(strict):
            if self.masks[candidate_id] == strict:
                return self.cfg.node(candidate_id)
        return None
