"""Control dependence analysis (paper Definition 3.9).

``controlD(ni, nj)`` is true when ``ni`` has two distinct successors ``nk``
and ``nl`` such that ``nj`` post-dominates ``nk`` but does not post-dominate
``nl``.  In that case we say *nj is control dependent on ni*: whether ``nj``
executes is decided at the branch ``ni``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Set

from repro.cfg.graph import CFGAnalysis, ControlFlowGraph
from repro.cfg.ir import CFGNode


class ControlDependence(CFGAnalysis):
    """Control dependence relation for a CFG."""

    def __init__(self, cfg: ControlFlowGraph):
        super().__init__(cfg)
        self.post_dominance = cfg.post_dominance
        #: Maps a branch node id to the set of node ids control dependent on it.
        self._dependents: Dict[int, Set[int]] = {}
        #: Maps a node id to the set of branch node ids it is control dependent on.
        self._controllers: Dict[int, Set[int]] = {}
        self._compute()

    def _compute(self) -> None:
        for node in self.cfg.nodes:
            self._dependents.setdefault(node.node_id, set())
            self._controllers.setdefault(node.node_id, set())
        for branch in self.cfg.nodes:
            successors = self.cfg.successors(branch)
            if len(successors) < 2:
                continue
            for target in self.cfg.nodes:
                if self._is_control_dependent(branch, target, successors):
                    self._dependents[branch.node_id].add(target.node_id)
                    self._controllers[target.node_id].add(branch.node_id)

    def _is_control_dependent(
        self, branch: CFGNode, target: CFGNode, successors: List[CFGNode]
    ) -> bool:
        for first, second in combinations(successors, 2):
            if first.node_id == second.node_id:
                continue
            first_pd = self.post_dominance.post_dominates(first, target)
            second_pd = self.post_dominance.post_dominates(second, target)
            if first_pd != second_pd:
                return True
        return False

    def is_control_dependent(self, controller: CFGNode, dependent: CFGNode) -> bool:
        """``controlD(controller, dependent)``: is ``dependent`` control dependent on ``controller``?"""
        return dependent.node_id in self._dependents[controller.node_id]

    def dependents_of(self, controller: CFGNode) -> FrozenSet[int]:
        """Identifiers of all nodes control dependent on ``controller``."""
        return frozenset(self._dependents[controller.node_id])

    def controllers_of(self, dependent: CFGNode) -> FrozenSet[int]:
        """Identifiers of all branch nodes that ``dependent`` is control dependent on."""
        return frozenset(self._controllers[dependent.node_id])
