"""Data-flow facts over a CFG: Def/Use maps, reachability and reaching definitions.

These implement Definitions 3.2, 3.6 and 3.7 of the paper, plus a classic
reaching-definitions analysis that is not strictly required by the DiSE rules
(which only use Def/Use + ``IsCFGPath``) but is useful for clients and for
cross-checking the conservative rule (4) in tests.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.cfg.graph import ControlFlowGraph
from repro.cfg.ir import CFGNode


class DefUse:
    """Definition and use information for every node of a CFG."""

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg
        self._defs: Dict[int, Tuple[str, ...]] = {}
        self._uses: Dict[int, Tuple[str, ...]] = {}
        for node in cfg.nodes:
            defined = node.defined_variables()
            if defined:
                self._defs[node.node_id] = defined
            self._uses[node.node_id] = node.used_variables()

    def definition(self, node: CFGNode) -> str:
        """``Def(n)``: the variable defined at ``node`` or ``None`` (paper's ⊥).

        ``CALL`` nodes define one variable per formal parameter; this keeps
        the paper's single-variable view by reporting the first.  Use
        :meth:`definitions` in analyses that must see them all.
        """
        defined = self._defs.get(node.node_id)
        return defined[0] if defined else None

    def definitions(self, node: CFGNode) -> Tuple[str, ...]:
        """All variables defined at ``node`` (generalised ``Def(n)``)."""
        return self._defs.get(node.node_id, ())

    def uses(self, node: CFGNode) -> Tuple[str, ...]:
        """``Use(n)``: the variables read at ``node`` (empty tuple for ⊥)."""
        return self._uses.get(node.node_id, ())

    def defines(self, node: CFGNode, variable: str) -> bool:
        """True when ``node`` defines ``variable``."""
        return variable in self._defs.get(node.node_id, ())

    def nodes_defining(self, variable: str) -> List[CFGNode]:
        """All nodes that define ``variable``."""
        return [self.cfg.node(i) for i, vs in self._defs.items() if variable in vs]

    def nodes_using(self, variable: str) -> List[CFGNode]:
        """All nodes that read ``variable``."""
        return [self.cfg.node(i) for i, vs in self._uses.items() if variable in vs]


class Reachability:
    """Precomputed ``IsCFGPath`` relation (Definition 3.2) for a CFG.

    The relation is reflexive; computing it once up front keeps the DiSE
    fixed-point and the directed search fast on repeated queries.
    """

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg
        self._reachable: Dict[int, FrozenSet[int]] = {}
        for node in cfg.nodes:
            self._reachable[node.node_id] = frozenset(cfg.reachable_from(node))

    def is_cfg_path(self, source: CFGNode, target: CFGNode) -> bool:
        """True when there is a CFG path from ``source`` to ``target``."""
        return target.node_id in self._reachable[source.node_id]

    def reachable_ids(self, source: CFGNode) -> FrozenSet[int]:
        """All node identifiers reachable from ``source`` (including itself)."""
        return self._reachable[source.node_id]


class ReachingDefinitions:
    """Classic reaching-definitions data-flow analysis.

    ``IN(n)`` / ``OUT(n)`` are sets of ``(variable, defining node id)`` pairs.
    """

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg
        self.def_use = cfg.def_use
        self._in: Dict[int, Set[Tuple[str, int]]] = {n.node_id: set() for n in cfg.nodes}
        self._out: Dict[int, Set[Tuple[str, int]]] = {n.node_id: set() for n in cfg.nodes}
        self._compute()

    def _compute(self) -> None:
        changed = True
        while changed:
            changed = False
            for node in self.cfg.nodes:
                new_in: Set[Tuple[str, int]] = set()
                for pred in self.cfg.predecessors(node):
                    new_in |= self._out[pred.node_id]
                defined = self.def_use.definitions(node)
                if defined:
                    new_out = {pair for pair in new_in if pair[0] not in defined}
                    new_out.update((variable, node.node_id) for variable in defined)
                else:
                    new_out = set(new_in)
                if new_in != self._in[node.node_id] or new_out != self._out[node.node_id]:
                    self._in[node.node_id] = new_in
                    self._out[node.node_id] = new_out
                    changed = True

    def definitions_reaching_use(self, node: CFGNode, variable: str) -> List[CFGNode]:
        """All defining nodes of ``variable`` whose definition reaches ``node``."""
        return [
            self.cfg.node(def_id)
            for var, def_id in self._in[node.node_id]
            if var == variable
        ]
