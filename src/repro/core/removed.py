"""Handling of removed instructions (paper Fig. 5(a), ``removeNodes``).

Nodes removed from the base version do not exist in the modified CFG, but
they may still influence how the modified version behaves (a deleted write,
for instance, changes which definition reaches a later branch).  The paper
handles this by running the affected-location fixed point *on the base CFG*,
seeded with the removed nodes, and then translating the resulting affected
sets into modified-CFG nodes through ``diffMap``.

Most edits remove no branch or write node.  The fixed point then has no
seed and its result is empty, so it is not run, and nothing is computed on
the base CFG: its post-dominance, control dependence, def/use and
reachability are built only when a removal seeds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.cfg.ir import CFGNode
from repro.core.affected import AffectedLocationAnalysis, AffectedSets
from repro.diff.diff_map import DiffMap


@dataclass
class RemovedNodeEffects:
    """Modified-CFG nodes affected by instructions removed from the base version."""

    base_affected: AffectedSets
    mod_conditionals: List[CFGNode] = field(default_factory=list)
    mod_writes: List[CFGNode] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.mod_conditionals or self.mod_writes)


def compute_removed_node_effects(
    diff_map: DiffMap, apply_rule4: bool = True, forward_writes: bool = True
) -> RemovedNodeEffects:
    """``removeNodes(CFGbase, diffMap)`` from Fig. 5(a).

    Runs the affected-set fixed point on the base CFG, seeded with the
    removed conditional and write nodes, then uses ``diffMap`` to translate
    the resulting base nodes to their modified-version counterparts.  Removed
    nodes themselves map to nothing and drop out (``updateSets``).
    """
    removed = diff_map.removed_base_nodes()
    seed_conditionals = [n for n in removed if n.is_branch]
    seed_writes = [n for n in removed if n.is_write]
    if not (seed_conditionals or seed_writes):
        return RemovedNodeEffects(base_affected=AffectedSets(diff_map.cfg_base))

    analysis = AffectedLocationAnalysis(
        diff_map.cfg_base, apply_rule4=apply_rule4, forward_writes=forward_writes
    )
    base_affected = analysis.compute(seed_conditionals, seed_writes, record_trace=False)

    effects = RemovedNodeEffects(base_affected=base_affected)
    effects.mod_conditionals = _update_sets(base_affected.affected_conditional_nodes(), diff_map)
    effects.mod_writes = _update_sets(base_affected.affected_write_nodes(), diff_map)
    return effects


def _update_sets(base_nodes: Iterable[CFGNode], diff_map: DiffMap) -> List[CFGNode]:
    """``updateSets(AN, diffMap)``: map base nodes to modified nodes, dropping removals."""
    mapped: Dict[int, CFGNode] = {}
    for base_node in base_nodes:
        mod_node = diff_map.get(base_node)
        if mod_node is not None:
            mapped.setdefault(mod_node.node_id, mod_node)
    return list(mapped.values())
