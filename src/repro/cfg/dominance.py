"""Post-dominance analysis (paper Definition 3.8).

``postDom(ni, nj)`` is true when every CFG path from ``ni`` to the exit node
passes through ``nj``.  The relation is reflexive (a node post-dominates
itself), matching the paper's example where ``postDom(n1, n1)`` is true.

The analysis is the classic iterative data-flow formulation over the reversed
CFG: ``pdom(n) = {n} ∪ ⋂ pdom(s) for successors s of n``, seeded with the
full node set and iterated to a fixed point.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set

from repro.cfg.graph import CFGAnalysis, ControlFlowGraph
from repro.cfg.ir import CFGNode


class PostDominance(CFGAnalysis):
    """Post-dominator sets for every node of a CFG."""

    def __init__(self, cfg: ControlFlowGraph):
        super().__init__(cfg)
        self._pdom: Dict[int, Set[int]] = {}
        self._compute()

    def _compute(self) -> None:
        if self.cfg.end is None:
            raise ValueError("CFG has no end node")
        all_ids = {node.node_id for node in self.cfg.nodes}
        exit_id = self.cfg.end.node_id

        pdom: Dict[int, Set[int]] = {}
        for node in self.cfg.nodes:
            if node.node_id == exit_id:
                pdom[node.node_id] = {exit_id}
            else:
                pdom[node.node_id] = set(all_ids)

        changed = True
        while changed:
            changed = False
            for node in self.cfg.nodes:
                if node.node_id == exit_id:
                    continue
                successors = self.cfg.successors(node)
                if successors:
                    intersection: Optional[Set[int]] = None
                    for succ in successors:
                        succ_set = pdom[succ.node_id]
                        intersection = (
                            set(succ_set) if intersection is None else intersection & succ_set
                        )
                    new_set = {node.node_id} | (intersection or set())
                else:
                    # A node with no successors other than itself: only it
                    # post-dominates itself (should not occur in well-formed CFGs).
                    new_set = {node.node_id}
                if new_set != pdom[node.node_id]:
                    pdom[node.node_id] = new_set
                    changed = True
        self._pdom = pdom

    def post_dominators(self, node: CFGNode) -> FrozenSet[int]:
        """The identifiers of all nodes that post-dominate ``node``."""
        return frozenset(self._pdom[node.node_id])

    def post_dominates(self, first: CFGNode, second: CFGNode) -> bool:
        """``postDom(first, second)``: does ``second`` post-dominate ``first``?"""
        return second.node_id in self._pdom[first.node_id]

    def immediate_post_dominator(self, node: CFGNode) -> Optional[CFGNode]:
        """The unique closest strict post-dominator of ``node`` (None for the exit)."""
        assert self.cfg.end is not None
        if node.node_id == self.cfg.end.node_id:
            return None
        strict = self._pdom[node.node_id] - {node.node_id}
        # The immediate post-dominator is the strict post-dominator that is
        # itself post-dominated only by other members of the strict set.
        for candidate_id in strict:
            others = strict - {candidate_id}
            if all(other in self._pdom[candidate_id] for other in others):
                return self.cfg.node(candidate_id)
        return None
