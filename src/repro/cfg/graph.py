"""The control flow graph data structure (paper Definition 3.1).

A :class:`ControlFlowGraph` is a directed graph with a single ``begin`` node
and a single ``end`` node; every node is reachable from ``begin`` and the
``end`` node is reachable from every node (for well-formed procedures).
"""

from __future__ import annotations

import weakref
from functools import cached_property
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.cfg.ir import FALLTHROUGH_EDGE, FALSE_EDGE, TRUE_EDGE, CFGEdge, CFGNode, NodeKind
from repro.lang.ast_nodes import Expr, Stmt

#: Reserved node identifiers for the synthetic entry and exit nodes.
BEGIN_NODE_ID = -1
END_NODE_ID = -2


#: The per-CFG analyses computed on first use; adding a node or an edge
#: drops them.
_LAZY_ANALYSES = (
    "post_dominance",
    "control_dependence",
    "def_use",
    "reachability",
    "regions",
    "step_targets",
    "branch_free_closure",
)

#: Where a :attr:`ControlFlowGraph.branch_free_closure` stops: the nodes at
#: which the lookahead's walk takes a guard or ends a path.
_CLOSURE_STOPS = (NodeKind.BRANCH, NodeKind.END, NodeKind.ERROR)


class CFGAnalysis:
    """Base of the analyses a :class:`ControlFlowGraph` memoises.

    An analysis holds its CFG weakly: the CFG holds the analysis, so a
    strong reference back would make the pair a reference cycle, and a
    dropped parse's CFG would live on until the cyclic garbage collector
    ran.  Use an analysis while its CFG is alive.
    """

    def __init__(self, cfg: "ControlFlowGraph"):
        self._cfg = weakref.ref(cfg)

    @property
    def cfg(self) -> "ControlFlowGraph":
        """The analysed CFG (None once it has been reclaimed)."""
        return self._cfg()


class ControlFlowGraph:
    """A control flow graph for a single procedure.

    The builder grows it node by node; once :func:`~repro.cfg.builder.build_cfg`
    returns it, it is never mutated, so the analyses it computes on first use
    (:attr:`post_dominance`, :attr:`control_dependence`, :attr:`def_use`,
    :attr:`reachability`, :attr:`regions`, :attr:`step_targets`,
    :attr:`branch_free_closure`) are shared
    by every consumer of the graph.  The analysis objects hold the graph
    weakly (:class:`CFGAnalysis`), so a graph is in no reference cycle.
    """

    def __init__(self, procedure_name: str = ""):
        self.procedure_name = procedure_name
        self._nodes: Dict[int, CFGNode] = {}
        self._successors: Dict[int, List[CFGEdge]] = {}
        self._predecessors: Dict[int, List[CFGEdge]] = {}
        self._next_id = 0
        self.begin: Optional[CFGNode] = None
        self.end: Optional[CFGNode] = None
        #: Maps ``id(stmt)`` of the originating AST statement to the CFG nodes
        #: generated for it; used by the differ to mark changed nodes.
        self.stmt_to_nodes: Dict[int, List[CFGNode]] = {}

    # -- construction -------------------------------------------------------

    def new_node(
        self,
        kind: NodeKind,
        line: int = 0,
        label: str = "",
        stmt: Optional[Stmt] = None,
        condition: Optional[Expr] = None,
        target: Optional[str] = None,
        expr: Optional[Expr] = None,
        **call_fields,
    ) -> CFGNode:
        """Create a node, register it and return it.

        Statement nodes are numbered 0, 1, 2, ... in creation (source) order so
        that node names line up with the paper's ``n0``, ``n1``, ... labels;
        the synthetic begin and end nodes use reserved identifiers.
        ``call_fields`` forwards the call-node attributes (``callee``,
        ``call_args``, ``call_params``, ``scope_names``, ``callee_digest``,
        ``call_depth``, ...) to the :class:`CFGNode` constructor.  The
        node's expressions are lowered here, once (see
        :mod:`repro.symexec.evaluator`).
        """
        if kind is NodeKind.BEGIN:
            node_id = BEGIN_NODE_ID
        elif kind is NodeKind.END:
            node_id = END_NODE_ID
        else:
            node_id = self._next_id
            self._next_id += 1
        node = CFGNode(
            node_id=node_id,
            kind=kind,
            line=line,
            label=label,
            stmt=stmt,
            condition=condition,
            target=target,
            expr=expr,
            **call_fields,
        )
        # Imported here: repro.symexec imports the CFG modules.
        from repro.symexec.evaluator import lower_expression

        if expr is not None:
            node.lowered_expr = lower_expression(expr)
        if condition is not None:
            node.lowered_condition = lower_expression(condition)
        node.lowered_args = tuple(lower_expression(arg) for arg in node.call_args)
        self._nodes[node.node_id] = node
        self._drop_analyses()
        self._successors[node.node_id] = []
        self._predecessors[node.node_id] = []
        if kind is NodeKind.BEGIN:
            self.begin = node
        elif kind is NodeKind.END:
            self.end = node
        if stmt is not None:
            self.stmt_to_nodes.setdefault(id(stmt), []).append(node)
        return node

    def add_edge(self, source: CFGNode, target: CFGNode, label: str = FALLTHROUGH_EDGE) -> CFGEdge:
        """Add a directed edge from ``source`` to ``target``."""
        edge = CFGEdge(source.node_id, target.node_id, label)
        self._drop_analyses()
        self._successors[source.node_id].append(edge)
        self._predecessors[target.node_id].append(edge)
        return edge

    def _drop_analyses(self) -> None:
        for name in _LAZY_ANALYSES:
            self.__dict__.pop(name, None)

    # Each analysis is imported where it is built: its module imports this one.

    @cached_property
    def post_dominance(self):
        """The :class:`~repro.cfg.dominance.PostDominance` of this CFG."""
        from repro.cfg.dominance import PostDominance

        return PostDominance(self)

    @cached_property
    def control_dependence(self):
        """The :class:`~repro.cfg.control_dependence.ControlDependence` of this CFG."""
        from repro.cfg.control_dependence import ControlDependence

        return ControlDependence(self)

    @cached_property
    def def_use(self):
        """The :class:`~repro.cfg.dataflow.DefUse` maps of this CFG."""
        from repro.cfg.dataflow import DefUse

        return DefUse(self)

    @cached_property
    def reachability(self):
        """The :class:`~repro.cfg.dataflow.Reachability` (``IsCFGPath``) of this CFG."""
        from repro.cfg.dataflow import Reachability

        return Reachability(self)

    @cached_property
    def regions(self):
        """The :class:`~repro.cfg.region_hash.RegionHashIndex` of this CFG."""
        from repro.cfg.region_hash import RegionHashIndex

        return RegionHashIndex(self)

    @cached_property
    def step_targets(self) -> Dict[int, Tuple[CFGNode, ...]]:
        """Where execution goes from each node, by node id, looked up once per node.

        A ``BRANCH`` node maps to its ``(true target, false target)``; any
        other node to its successors in edge order: one for straight-line
        flow, none at the end and error nodes.  The engine and the
        feasibility lookahead read it at every step instead of scanning
        edges.
        """
        table: Dict[int, Tuple[CFGNode, ...]] = {}
        for node_id, node in self._nodes.items():
            if node.kind is NodeKind.BRANCH:
                table[node_id] = (
                    self.successor_on(node, TRUE_EDGE),
                    self.successor_on(node, FALSE_EDGE),
                )
            else:
                table[node_id] = tuple(self._nodes[e.target] for e in self._successors[node_id])
        return table

    @cached_property
    def branch_free_closure(self) -> Dict[int, FrozenSet[int]]:
        """The nodes each node reaches before any branch decision, by node id.

        A node's closure holds the node itself and, unless it is a
        ``BRANCH``, ``END`` or ``ERROR`` node, the closures of its
        :attr:`step_targets`: everything reachable from it without passing
        a branch or a terminal.  The feasibility lookahead's walk visits all
        of it before it takes its first guard, whatever the state, so a
        query whose every target lies in it needs no walk.

        The least fixed point of those equations, swept in reverse node
        order (most edges run forward, so a loop-free graph settles in one
        sweep and a second confirms it).
        """
        step_targets = self.step_targets
        closure: Dict[int, FrozenSet[int]] = {}
        order = self.nodes[::-1]
        changed = True
        while changed:
            changed = False
            for node in order:
                node_id = node.node_id
                reach = {node_id}
                if node.kind not in _CLOSURE_STOPS:
                    for successor in step_targets[node_id]:
                        reach.update(closure.get(successor.node_id, ()))
                if len(reach) != len(closure.get(node_id, ())):
                    closure[node_id] = frozenset(reach)
                    changed = True
        return closure

    # -- basic queries -------------------------------------------------------

    def node(self, node_id: int) -> CFGNode:
        """Return the node with the given identifier."""
        return self._nodes[node_id]

    @property
    def nodes(self) -> List[CFGNode]:
        """All nodes: begin first, then statement nodes in source order, then end."""
        ordered: List[CFGNode] = []
        if self.begin is not None:
            ordered.append(self.begin)
        ordered.extend(self._nodes[i] for i in sorted(self._nodes) if i >= 0)
        if self.end is not None:
            ordered.append(self.end)
        return ordered

    @property
    def edges(self) -> List[CFGEdge]:
        """All edges."""
        result: List[CFGEdge] = []
        for node_id in sorted(self._successors):
            result.extend(self._successors[node_id])
        return result

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[CFGNode]:
        return iter(self.nodes)

    def __contains__(self, node: CFGNode) -> bool:
        return node.node_id in self._nodes and self._nodes[node.node_id] is node

    def successors(self, node: CFGNode) -> List[CFGNode]:
        """Successor nodes of ``node`` in edge-insertion order."""
        return [self._nodes[e.target] for e in self._successors[node.node_id]]

    def predecessors(self, node: CFGNode) -> List[CFGNode]:
        """Predecessor nodes of ``node``."""
        return [self._nodes[e.source] for e in self._predecessors[node.node_id]]

    def out_edges(self, node: CFGNode) -> List[CFGEdge]:
        """Outgoing edges of ``node``."""
        return list(self._successors[node.node_id])

    def successor_on(self, node: CFGNode, label: str) -> CFGNode:
        """The successor reached from ``node`` along the edge labelled ``label``."""
        for edge in self._successors[node.node_id]:
            if edge.label == label:
                return self._nodes[edge.target]
        raise KeyError(f"Node {node.name} has no outgoing edge labelled {label!r}")

    # -- node classes (Definitions 3.3 - 3.5) --------------------------------

    def branch_nodes(self) -> List[CFGNode]:
        """``Cond``: all conditional branch nodes."""
        return [n for n in self.nodes if n.is_branch]

    def write_nodes(self) -> List[CFGNode]:
        """``Write``: all write nodes."""
        return [n for n in self.nodes if n.is_write]

    def variables(self) -> Set[str]:
        """``Vars``: every variable read or written in the procedure."""
        result: Set[str] = set()
        for node in self.nodes:
            defined = node.defined_variable()
            if defined is not None:
                result.add(defined)
            result.update(node.used_variables())
        return result

    # -- reachability --------------------------------------------------------

    def reachable_from(self, node: CFGNode) -> Set[int]:
        """The identifiers of all nodes reachable from ``node`` (including itself)."""
        seen: Set[int] = set()
        stack = [node.node_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for edge in self._successors[current]:
                if edge.target not in seen:
                    stack.append(edge.target)
        return seen

    def is_cfg_path(self, source: CFGNode, target: CFGNode) -> bool:
        """``IsCFGPath`` from Definition 3.2 (reflexive: a node reaches itself)."""
        if source.node_id == target.node_id:
            return True
        return target.node_id in self.reachable_from(source)

    def check_well_formed(self) -> None:
        """Verify the invariants of Definition 3.1.

        Raises:
            ValueError: if the graph has no begin/end node, if some node is
                unreachable from begin, or if end is unreachable from some node.
        """
        if self.begin is None or self.end is None:
            raise ValueError("CFG must have begin and end nodes")
        from_begin = self.reachable_from(self.begin)
        to_end, stack = {self.end.node_id}, [self.end.node_id]
        while stack:
            for edge in self._predecessors[stack.pop()]:
                if edge.source not in to_end:
                    to_end.add(edge.source)
                    stack.append(edge.source)
        for node in self.nodes:
            if node.node_id not in from_begin:
                raise ValueError(f"Node {node.name} is not reachable from nbegin")
            if node.node_id not in to_end:
                raise ValueError(f"nend is not reachable from node {node.name}")

    # -- convenience ---------------------------------------------------------

    def nodes_for_statement(self, stmt: Stmt) -> List[CFGNode]:
        """All CFG nodes generated from the given AST statement."""
        return list(self.stmt_to_nodes.get(id(stmt), []))

    def describe(self) -> str:
        """A readable multi-line description of nodes and edges."""
        lines = [f"CFG for {self.procedure_name or '<anonymous>'}"]
        for node in self.nodes:
            succ = ", ".join(
                f"{self._nodes[e.target].name}{'[' + e.label + ']' if e.label else ''}"
                for e in self._successors[node.node_id]
            )
            lines.append(f"  {node.name:<8} {node.kind.name:<7} {node.label:<30} -> {succ}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return f"ControlFlowGraph({self.procedure_name!r}, nodes={len(self)})"
