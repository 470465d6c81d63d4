"""Control flow graphs and the static analyses required by DiSE.

This subpackage provides:

* :class:`~repro.cfg.graph.ControlFlowGraph` (Definition 3.1) and its builder;
* post-dominance (Definition 3.8) and control dependence (Definition 3.9);
* Def/Use maps (Definitions 3.6/3.7), reachability (Definition 3.2) and a
  reaching-definitions analysis;
* strongly connected components / loop detection for ``CheckLoops``;
* Graphviz DOT export used by the figure benchmarks.
"""

from repro.cfg.builder import RETURN_VARIABLE, CFGBuilder, build_cfg
from repro.cfg.callgraph import (
    CallGraph,
    CallGraphError,
    CallSite,
    build_call_graph,
    procedure_digests,
)
from repro.cfg.control_dependence import ControlDependence
from repro.cfg.dataflow import DefUse, Reachability, ReachingDefinitions
from repro.cfg.dominance import PostDominance
from repro.cfg.dot import cfg_to_dot
from repro.cfg.graph import BEGIN_NODE_ID, END_NODE_ID, ControlFlowGraph
from repro.cfg.ir import (
    FALLTHROUGH_EDGE,
    FALSE_EDGE,
    TRUE_EDGE,
    CFGEdge,
    CFGNode,
    NodeKind,
)
from repro.cfg.scc import SCCAnalysis

__all__ = [
    "BEGIN_NODE_ID",
    "END_NODE_ID",
    "RETURN_VARIABLE",
    "CFGBuilder",
    "build_cfg",
    "CallGraph",
    "CallGraphError",
    "CallSite",
    "build_call_graph",
    "procedure_digests",
    "ControlDependence",
    "DefUse",
    "Reachability",
    "ReachingDefinitions",
    "PostDominance",
    "cfg_to_dot",
    "ControlFlowGraph",
    "CFGEdge",
    "CFGNode",
    "NodeKind",
    "TRUE_EDGE",
    "FALSE_EDGE",
    "FALLTHROUGH_EDGE",
    "SCCAnalysis",
]
