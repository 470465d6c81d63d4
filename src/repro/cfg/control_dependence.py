"""Control dependence analysis (paper Definition 3.9).

``controlD(ni, nj)`` is true when ``ni`` has two distinct successors ``nk``
and ``nl`` such that ``nj`` post-dominates ``nk`` but does not post-dominate
``nl``.  In that case we say *nj is control dependent on ni*: whether ``nj``
executes is decided at the branch ``ni``.

With post-dominator sets held as bitmasks this is the definition verbatim:
the dependents of ``ni`` are ``pdom(nk) ^ pdom(nl)``, OR-ed over every pair
of distinct successors.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Set

from repro.cfg.graph import CFGAnalysis, ControlFlowGraph
from repro.cfg.ir import CFGNode

_NONE: FrozenSet[int] = frozenset()


class ControlDependence(CFGAnalysis):
    """Control dependence relation for a CFG."""

    def __init__(self, cfg: ControlFlowGraph):
        super().__init__(cfg)
        self.post_dominance = cfg.post_dominance
        masks = self.post_dominance.masks
        #: Maps a branch node id to the set of node ids control dependent on it.
        self._dependents: Dict[int, FrozenSet[int]] = {}
        #: Maps a node id to the set of branch node ids it is control dependent on.
        self._controllers: Dict[int, Set[int]] = {}
        for branch in cfg.nodes:
            dependents = 0
            for first, second in combinations(cfg.successors(branch), 2):
                dependents |= masks[first.node_id] ^ masks[second.node_id]
            if dependents:
                ids = self.post_dominance.ids(dependents)
                self._dependents[branch.node_id] = frozenset(ids)
                for dependent in ids:
                    self._controllers.setdefault(dependent, set()).add(branch.node_id)

    def is_control_dependent(self, controller: CFGNode, dependent: CFGNode) -> bool:
        """``controlD(controller, dependent)``: is ``dependent`` control dependent on ``controller``?"""
        return dependent.node_id in self.dependents_of(controller)

    def dependents_of(self, controller: CFGNode) -> FrozenSet[int]:
        """Identifiers of all nodes control dependent on ``controller``."""
        return self._dependents.get(controller.node_id, _NONE)

    def controllers_of(self, dependent: CFGNode) -> FrozenSet[int]:
        """Identifiers of all branch nodes that ``dependent`` is control dependent on."""
        return frozenset(self._controllers.get(dependent.node_id, _NONE))
