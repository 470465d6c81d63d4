"""Computation of affected program locations (paper §3.2, Figures 3-5).

Two sets of CFG nodes of the modified program are computed:

* ``ACN`` -- affected conditional (branch) nodes; these directly lead to the
  generation of affected path conditions;
* ``AWN`` -- affected write nodes; these indirectly lead to affected path
  conditions, either because they define a variable later read at an affected
  branch, or because their reachability is control dependent on an affected
  branch.

The sets are seeded with the changed/added nodes reported by the diff
analysis (plus the image of nodes affected by removals, see
:mod:`repro.core.removed`) and grown to a fixed point with the rules of
Fig. 3, after which the reaching-definitions rule of Fig. 4 is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set, Tuple

from repro.cfg.graph import ControlFlowGraph
from repro.cfg.ir import CFGNode


@dataclass(frozen=True)
class RuleApplication:
    """One row of the fixed-point trace (paper Fig. 5(b))."""

    acn: Tuple[str, ...]
    awn: Tuple[str, ...]
    source: str
    target: str
    rule: str

    def __str__(self) -> str:
        acn = "{" + ", ".join(self.acn) + "}"
        awn = "{" + ", ".join(self.awn) + "}"
        if not self.rule:
            return f"{acn:<40} {awn:<50} (initial)"
        return f"{acn:<40} {awn:<50} {self.source:>4} {self.target:>4}  {self.rule}"


@dataclass
class AffectedSets:
    """The affected conditional and write node sets for one CFG."""

    cfg: ControlFlowGraph
    acn: Set[int] = field(default_factory=set)
    awn: Set[int] = field(default_factory=set)
    trace: List[RuleApplication] = field(default_factory=list)

    # -- queries --------------------------------------------------------------

    def affected_conditional_nodes(self) -> List[CFGNode]:
        return [self.cfg.node(i) for i in sorted(self.acn)]

    def affected_write_nodes(self) -> List[CFGNode]:
        return [self.cfg.node(i) for i in sorted(self.awn)]

    def all_affected_nodes(self) -> List[CFGNode]:
        return [self.cfg.node(i) for i in sorted(self.acn | self.awn)]

    def count(self) -> int:
        """Total number of affected nodes (the "Affected" column of Table 2)."""
        return len(self.acn | self.awn)

    def is_empty(self) -> bool:
        return not (self.acn or self.awn)

    def contains(self, node: CFGNode) -> bool:
        return node.node_id in self.acn or node.node_id in self.awn

    def names(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Paper-style node names for (ACN, AWN)."""
        return (
            tuple(n.name for n in self.affected_conditional_nodes()),
            tuple(n.name for n in self.affected_write_nodes()),
        )

    def describe(self) -> str:
        acn_names, awn_names = self.names()
        return f"ACN = {{{', '.join(acn_names)}}}\nAWN = {{{', '.join(awn_names)}}}"


class AffectedLocationAnalysis:
    """The fixed-point analysis over a single CFG.

    Args:
        cfg: the CFG over which the affected sets are computed.
        apply_rule4: when False the reaching-definitions rule (Fig. 4) is
            skipped; exists only for the ablation benchmark.
        forward_writes: apply the forward data-flow closure rule in addition
            to the paper's published rules.  The published rules (1)-(3) only
            propagate from an affected *write* to a *conditional* that reads
            its variable; they do not propagate through chains of writes
            (``PedalCmd`` feeding ``BrakeCmd`` feeding a branch).  The paper's
            own example has no such chains, but realistic code (and our
            artifact re-creations) does, so by default this reproduction also
            applies::

                if ni in AWN and nj in Write and Def(ni) in Use(nj)
                   and IsCFGPath(ni, nj):  AWN := AWN ∪ {nj}

            Set ``forward_writes=False`` for the strict published rule set
            (used by the Figure 5(b) reproduction and the ablation benchmark).

    Rules (3), (F) and (4) visit only the readers of a write's variables, in
    the ascending node order of the full scans they replace.
    """

    def __init__(
        self,
        cfg: ControlFlowGraph,
        apply_rule4: bool = True,
        forward_writes: bool = True,
    ):
        self.cfg = cfg
        self.apply_rule4 = apply_rule4
        self.forward_writes = forward_writes
        self.control_dependence = cfg.control_dependence
        self.def_use = cfg.def_use
        self.reachability = cfg.reachability
        self._writes = cfg.write_nodes()

    def compute(
        self,
        seed_conditionals: Iterable[CFGNode] = (),
        seed_writes: Iterable[CFGNode] = (),
        record_trace: bool = True,
    ) -> AffectedSets:
        """Run the fixed point starting from the given seed nodes."""
        sets = AffectedSets(self.cfg)
        sets.acn = {n.node_id for n in seed_conditionals}
        sets.awn = {n.node_id for n in seed_writes}
        if record_trace:
            self._trace(sets, None, None, "")

        changed = True
        while changed:
            changed = False
            changed |= self._apply_control_dependence_rules(sets, record_trace)
            changed |= self._apply_data_flow_rule(sets, record_trace)
            if self.forward_writes:
                changed |= self._apply_forward_write_rule(sets, record_trace)
        if self.apply_rule4:
            self._apply_reaching_definition_rule(sets, record_trace)
        return sets

    # -- Fig. 3 rules ---------------------------------------------------------

    def _apply_control_dependence_rules(self, sets: AffectedSets, record: bool) -> bool:
        """Rules (1) and (2): nodes control dependent on an affected conditional.

        Conditional dependents are added before write dependents of the same
        source, matching the order of the paper's Fig. 5(b) demonstration.
        """
        changed = False
        for source_id in sorted(sets.acn):
            source = self.cfg.node(source_id)
            dependents = [self.cfg.node(i) for i in sorted(self.control_dependence.dependents_of(source))]
            for target in [d for d in dependents if d.is_branch] + [d for d in dependents if d.is_write]:
                if target.is_branch and target.node_id not in sets.acn:
                    sets.acn.add(target.node_id)
                    changed = True
                    if record:
                        self._trace(sets, source, target, "Eq. (1)")
                elif target.is_write and target.node_id not in sets.awn:
                    sets.awn.add(target.node_id)
                    changed = True
                    if record:
                        self._trace(sets, source, target, "Eq. (2)")
        return changed

    def _apply_data_flow_rule(self, sets: AffectedSets, record: bool) -> bool:
        """Rule (3): conditionals that read a variable defined at an affected write."""
        changed = False
        for source_id in sorted(sets.awn):
            source = self.cfg.node(source_id)
            for target in self.def_use.readers_of(self.def_use.definitions(source)):
                if not target.is_branch or target.node_id in sets.acn:
                    continue
                if not self.reachability.is_cfg_path(source, target):
                    continue
                sets.acn.add(target.node_id)
                changed = True
                if record:
                    self._trace(sets, source, target, "Eq. (3)")
        return changed

    def _apply_forward_write_rule(self, sets: AffectedSets, record: bool) -> bool:
        """Forward closure: writes that read a variable defined at an affected write.

        This is the documented extension rule (see the class docstring); it is
        what makes affectedness propagate through intermediate variables.
        """
        changed = False
        for source_id in sorted(sets.awn):
            source = self.cfg.node(source_id)
            for target in self.def_use.readers_of(self.def_use.definitions(source)):
                if not target.is_write or target.node_id in sets.awn:
                    continue
                if not self.reachability.is_cfg_path(source, target):
                    continue
                sets.awn.add(target.node_id)
                changed = True
                if record:
                    self._trace(sets, source, target, "Eq. (F)")
        return changed

    # -- Fig. 4 rule ----------------------------------------------------------

    def _apply_reaching_definition_rule(self, sets: AffectedSets, record: bool) -> bool:
        """Rule (4): writes whose definitions flow into an affected node."""
        changed_any = False
        changed = True
        while changed:
            changed = False
            for source in self._writes:
                if source.node_id in sets.awn:
                    continue
                for target in self.def_use.readers_of(self.def_use.definitions(source)):
                    if target.node_id not in sets.awn and target.node_id not in sets.acn:
                        continue
                    if not self.reachability.is_cfg_path(source, target):
                        continue
                    sets.awn.add(source.node_id)
                    changed = True
                    changed_any = True
                    if record:
                        self._trace(sets, source, target, "Eq. (4)")
                    break
        return changed_any

    # -- trace ----------------------------------------------------------------

    @staticmethod
    def _trace(
        sets: AffectedSets,
        source: Optional[CFGNode],
        target: Optional[CFGNode],
        rule: str,
    ) -> None:
        acn_names = tuple(n.name for n in sets.affected_conditional_nodes())
        awn_names = tuple(n.name for n in sets.affected_write_nodes())
        sets.trace.append(
            RuleApplication(
                acn=acn_names,
                awn=awn_names,
                source=source.name if source is not None else "",
                target=target.name if target is not None else "",
                rule=rule,
            )
        )


def compute_affected_sets(
    cfg: ControlFlowGraph,
    seed_conditionals: Iterable[CFGNode] = (),
    seed_writes: Iterable[CFGNode] = (),
    apply_rule4: bool = True,
) -> AffectedSets:
    """Convenience wrapper around :class:`AffectedLocationAnalysis`."""
    analysis = AffectedLocationAnalysis(cfg, apply_rule4=apply_rule4)
    return analysis.compute(seed_conditionals, seed_writes)
