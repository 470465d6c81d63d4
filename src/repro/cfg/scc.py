"""Strongly connected components and loop-entry detection.

The ``CheckLoops`` procedure of the directed search (paper Fig. 6, lines
26-28) needs ``IsLoopEntryNode`` and ``GetSCC``.  We use Tarjan's algorithm
(iterative, to avoid recursion limits on large CFGs) and treat an SCC as a
loop when it contains more than one node or a self-edge.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, List, Set

from repro.cfg.graph import ControlFlowGraph
from repro.cfg.ir import CFGNode


class SCCAnalysis:
    """Tarjan SCC decomposition plus loop-entry classification."""

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg
        self._component_of: Dict[int, int] = {}
        self._components: List[FrozenSet[int]] = []
        self._loop_components: Set[int] = set()
        self._loop_entries: Set[int] = set()
        self._compute()

    def _compute(self) -> None:
        index_counter = 0
        index: Dict[int, int] = {}
        lowlink: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[int] = []

        def successors(node_id: int) -> List[int]:
            return [n.node_id for n in self.cfg.successors(self.cfg.node(node_id))]

        for start in [n.node_id for n in self.cfg.nodes]:
            if start in index:
                continue
            work = [(start, iter(successors(start)))]
            index[start] = lowlink[start] = index_counter
            index_counter += 1
            stack.append(start)
            on_stack.add(start)
            while work:
                node_id, successor_iter = work[-1]
                advanced = False
                for succ in successor_iter:
                    if succ not in index:
                        index[succ] = lowlink[succ] = index_counter
                        index_counter += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(successors(succ))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node_id] = min(lowlink[node_id], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node_id])
                if lowlink[node_id] == index[node_id]:
                    component: Set[int] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node_id:
                            break
                    component_index = len(self._components)
                    self._components.append(frozenset(component))
                    for member in component:
                        self._component_of[member] = component_index

        self._classify_loops()

    def _classify_loops(self) -> None:
        for component_index, component in enumerate(self._components):
            is_loop = len(component) > 1
            if not is_loop:
                (only,) = component
                node = self.cfg.node(only)
                is_loop = any(s.node_id == only for s in self.cfg.successors(node))
            if not is_loop:
                continue
            self._loop_components.add(component_index)
            # A loop entry is a component member with a predecessor outside the SCC.
            for member in component:
                node = self.cfg.node(member)
                for pred in self.cfg.predecessors(node):
                    if pred.node_id not in component:
                        self._loop_entries.add(member)
                        break

    # -- queries -------------------------------------------------------------

    def components(self) -> List[FrozenSet[int]]:
        """All SCCs as frozensets of node identifiers."""
        return list(self._components)

    def scc_of(self, node: CFGNode) -> FrozenSet[int]:
        """``GetSCC(n)``: the identifiers of the SCC containing ``node``."""
        return self._components[self._component_of[node.node_id]]

    def is_loop_entry(self, node: CFGNode) -> bool:
        """``IsLoopEntryNode(n)``: is ``node`` the entry of a loop SCC?"""
        return node.node_id in self._loop_entries

    @property
    def loop_entry_ids(self) -> AbstractSet[int]:
        """The identifiers of every loop entry node."""
        return self._loop_entries

    def is_in_loop(self, node: CFGNode) -> bool:
        """True when ``node`` belongs to a loop SCC."""
        return self._component_of[node.node_id] in self._loop_components

    def loop_nodes(self) -> FrozenSet[int]:
        """Identifiers of all nodes that are part of some loop."""
        members: Set[int] = set()
        for component_index in self._loop_components:
            members |= self._components[component_index]
        return frozenset(members)
