"""Mapping AST-level change information onto CFG nodes.

The paper's pre-processing step (§3.1) marks nodes of ``CFGbase`` as
*removed*, *changed* or *unchanged* and nodes of ``CFGmod`` as *added*,
*changed* or *unchanged*, and builds ``diffMap`` which relates base nodes to
their corresponding modified nodes.  :class:`DiffMap` implements exactly that
interface, including the behaviour that ``get`` on a removed node returns
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cfg.graph import ControlFlowGraph
from repro.cfg.ir import CFGNode
from repro.diff.ast_diff import (
    ChangeKind,
    ProcedureDiff,
    ProgramDiff,
    diff_procedures,
    diff_program,
)
from repro.lang.ast_nodes import Procedure, Program, walk_statements


@dataclass
class DiffMap:
    """Node-level change classification for a pair of CFGs.

    For interprocedural (flattened) CFGs the map covers the spliced callee
    nodes too: each matched procedure's statement diff is projected onto
    every splice of that procedure, and ``program_diff`` carries the whole
    program-level diff alongside the entry procedure's ``procedure_diff``.
    """

    cfg_base: ControlFlowGraph
    cfg_mod: ControlFlowGraph
    procedure_diff: ProcedureDiff
    base_marks: Dict[int, ChangeKind]
    mod_marks: Dict[int, ChangeKind]
    base_to_mod: Dict[int, Optional[int]]
    program_diff: Optional[ProgramDiff] = None

    # -- paper interface ------------------------------------------------------

    def get(self, base_node: CFGNode) -> Optional[CFGNode]:
        """``diffMap.get``: the modified-version node for a base node.

        Returns ``None`` for removed nodes (the paper's "empty set").
        """
        target = self.base_to_mod.get(base_node.node_id)
        if target is None:
            return None
        return self.cfg_mod.node(target)

    def mark_of_mod_node(self, node: CFGNode) -> ChangeKind:
        """Classification of a node of the modified CFG."""
        return self.mod_marks.get(node.node_id, ChangeKind.UNCHANGED)

    def mark_of_base_node(self, node: CFGNode) -> ChangeKind:
        """Classification of a node of the base CFG."""
        return self.base_marks.get(node.node_id, ChangeKind.UNCHANGED)

    # -- derived node sets -----------------------------------------------------

    def changed_or_added_mod_nodes(self) -> List[CFGNode]:
        """Nodes of ``CFGmod`` marked changed or added (seed of the affected sets)."""
        return [
            node
            for node in self.cfg_mod.nodes
            if self.mod_marks.get(node.node_id) in (ChangeKind.CHANGED, ChangeKind.ADDED)
        ]

    def removed_base_nodes(self) -> List[CFGNode]:
        """Nodes of ``CFGbase`` marked removed."""
        return [
            node
            for node in self.cfg_base.nodes
            if self.base_marks.get(node.node_id) is ChangeKind.REMOVED
        ]

    def changed_mod_nodes(self) -> List[CFGNode]:
        return [
            node
            for node in self.cfg_mod.nodes
            if self.mod_marks.get(node.node_id) is ChangeKind.CHANGED
        ]

    def added_mod_nodes(self) -> List[CFGNode]:
        return [
            node
            for node in self.cfg_mod.nodes
            if self.mod_marks.get(node.node_id) is ChangeKind.ADDED
        ]

    def count_changed_nodes(self) -> int:
        """The "CFG Nodes Changed" column of Table 2: changed + added in CFGmod
        plus removed nodes of CFGbase (a removal is a change with no mod node)."""
        return len(self.changed_or_added_mod_nodes()) + len(self.removed_base_nodes())

    def describe(self) -> str:
        lines = [f"DiffMap for {self.cfg_mod.procedure_name}"]
        for node in self.cfg_mod.nodes:
            mark = self.mod_marks.get(node.node_id, ChangeKind.UNCHANGED)
            if mark is not ChangeKind.UNCHANGED:
                lines.append(f"  mod  {node.name:<6} {mark.value:<9} {node.label}")
        for node in self.cfg_base.nodes:
            mark = self.base_marks.get(node.node_id, ChangeKind.UNCHANGED)
            if mark is ChangeKind.REMOVED:
                lines.append(f"  base {node.name:<6} {mark.value:<9} {node.label}")
        if len(lines) == 1:
            lines.append("  (no changes)")
        return "\n".join(lines)


def build_diff_map(
    base: Procedure,
    modified: Procedure,
    procedure_diff: Optional[ProcedureDiff] = None,
) -> DiffMap:
    """Diff two procedure versions and lift the result onto their CFGs
    (``build_cfg(base)`` and ``build_cfg(modified)``)."""
    from repro.cfg.builder import build_cfg  # local import to avoid cycles

    cfg_base = build_cfg(base)
    cfg_mod = build_cfg(modified)
    procedure_diff = procedure_diff or diff_procedures(base, modified)

    base_marks: Dict[int, ChangeKind] = {}
    mod_marks: Dict[int, ChangeKind] = {}
    base_to_mod: Dict[int, Optional[int]] = {}
    _apply_procedure_diff(
        procedure_diff, cfg_base, cfg_mod, base_marks, mod_marks, base_to_mod
    )
    return DiffMap(
        cfg_base=cfg_base,
        cfg_mod=cfg_mod,
        procedure_diff=procedure_diff,
        base_marks=base_marks,
        mod_marks=mod_marks,
        base_to_mod=base_to_mod,
    )


def _apply_procedure_diff(
    diff: ProcedureDiff,
    cfg_base: ControlFlowGraph,
    cfg_mod: ControlFlowGraph,
    base_marks: Dict[int, ChangeKind],
    mod_marks: Dict[int, ChangeKind],
    base_to_mod: Dict[int, Optional[int]],
) -> None:
    """Project one procedure's statement diff onto the given CFGs.

    A statement of a callee can lower to several node runs (one per call
    splice).  The node lists of a matched statement pair are zipped
    position-by-position -- splices are emitted in flattening order, so the
    k-th base splice lines up with the k-th modified splice.  Leftover
    nodes (a call site added or removed upstream changed the splice count)
    are classified added/removed rather than silently dropped.

    Statement pairs zipped as *unchanged* whose flat nodes nonetheless hash
    differently are upgraded to changed: this is how an edited (or
    re-signatured) callee marks every call site that reaches it -- the call
    nodes embed the callee's transitive content digest in their structural
    key -- which is exactly the interprocedural change-impact propagation
    the affected-set seeds need.
    """

    def mark_pair(base_stmt, mod_stmt, kind: ChangeKind) -> None:
        base_nodes = cfg_base.nodes_for_statement(base_stmt)
        mod_nodes = cfg_mod.nodes_for_statement(mod_stmt)
        for base_node, mod_node in zip(base_nodes, mod_nodes):
            node_kind = kind
            if (
                node_kind is ChangeKind.UNCHANGED
                and base_node.structural_key() != mod_node.structural_key()
            ):
                node_kind = ChangeKind.CHANGED
            base_marks[base_node.node_id] = node_kind
            mod_marks[mod_node.node_id] = node_kind
            base_to_mod[base_node.node_id] = mod_node.node_id
        for base_node in base_nodes[len(mod_nodes):]:
            base_marks[base_node.node_id] = ChangeKind.REMOVED
            base_to_mod[base_node.node_id] = None
        for mod_node in mod_nodes[len(base_nodes):]:
            mod_marks[mod_node.node_id] = ChangeKind.ADDED

    for base_stmt, mod_stmt in diff.unchanged_pairs:
        mark_pair(base_stmt, mod_stmt, ChangeKind.UNCHANGED)
    for base_stmt, mod_stmt in diff.changed_pairs:
        mark_pair(base_stmt, mod_stmt, ChangeKind.CHANGED)
    for stmt in diff.added:
        for node in cfg_mod.nodes_for_statement(stmt):
            mod_marks[node.node_id] = ChangeKind.ADDED
    for stmt in diff.removed:
        for node in cfg_base.nodes_for_statement(stmt):
            base_marks[node.node_id] = ChangeKind.REMOVED
            base_to_mod[node.node_id] = None


def build_program_diff_map(
    base: Program,
    modified: Program,
    entry: str,
    program_diff: Optional[ProgramDiff] = None,
) -> DiffMap:
    """Diff two program versions and lift the result onto the entry's
    flattened CFGs (``build_cfg(base, entry)`` and ``build_cfg(modified,
    entry)``).

    Every matched procedure's statement diff is projected onto the entry
    procedure's flattened CFGs, so changed callee statements mark their
    spliced copies in *every* reaching call site, and an edited callee
    upgrades the call nodes themselves to changed (their structural key
    embeds the callee content digest).  Procedures the entry never reaches
    contribute no nodes and drop out naturally.
    """
    from repro.cfg.builder import build_cfg  # local import to avoid cycles

    cfg_base = build_cfg(base, entry)
    cfg_mod = build_cfg(modified, entry)
    program_diff = program_diff or diff_program(base, modified)

    base_marks: Dict[int, ChangeKind] = {}
    mod_marks: Dict[int, ChangeKind] = {}
    base_to_mod: Dict[int, Optional[int]] = {}
    # The entry procedure first (its statement nodes dominate the map), then
    # every other matched procedure's diff projected onto the splices.
    ordered = [entry] + sorted(
        name for name in program_diff.procedure_diffs if name != entry
    )
    for name in ordered:
        diff = program_diff.procedure_diffs.get(name)
        if diff is None:
            continue
        _apply_procedure_diff(diff, cfg_base, cfg_mod, base_marks, mod_marks, base_to_mod)
    # Procedures present in only one version: their spliced nodes (if any
    # call survived) are pure additions/removals.
    for proc in program_diff.added_procedures:
        for stmt in walk_statements(proc.body):
            for node in cfg_mod.nodes_for_statement(stmt):
                mod_marks[node.node_id] = ChangeKind.ADDED
    for proc in program_diff.removed_procedures:
        for stmt in walk_statements(proc.body):
            for node in cfg_base.nodes_for_statement(stmt):
                base_marks[node.node_id] = ChangeKind.REMOVED
                base_to_mod[node.node_id] = None

    entry_diff = program_diff.procedure_diffs.get(entry)
    if entry_diff is None:
        entry_diff = diff_procedures(base.procedure(entry), modified.procedure(entry))
    return DiffMap(
        cfg_base=cfg_base,
        cfg_mod=cfg_mod,
        procedure_diff=entry_diff,
        base_marks=base_marks,
        mod_marks=mod_marks,
        base_to_mod=base_to_mod,
        program_diff=program_diff,
    )
