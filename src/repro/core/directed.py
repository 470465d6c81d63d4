"""Directed symbolic execution (paper §3.3, Fig. 6).

The directed search is implemented as an
:class:`~repro.symexec.strategy.ExplorationStrategy` plugged into the shared
symbolic execution engine:

* ``on_state``  implements ``UpdateExploredSet``;
* ``should_explore`` implements ``AffectedLocIsReachable`` (including
  ``CheckLoops`` and ``ResetUnExploredSet``);
* the four global sets ``ExCond``/``ExWrite``/``UnExCond``/``UnExWrite``
  live on the strategy object and persist across backtracking, exactly as the
  paper's pseudocode keeps them global.

Every feasible path whose remaining suffix cannot reach an unexplored
affected node is pruned; Theorem 3.10 (each affected-node sequence on some
feasible path is covered by exactly one explored path) is checked against
full symbolic execution by the property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.cfg.graph import ControlFlowGraph
from repro.cfg.ir import CFGNode, NodeKind
from repro.cfg.region_hash import RegionSignature
from repro.cfg.scc import SCCAnalysis
from repro.core.affected import AffectedSets
from repro.core.lookahead import FeasibleReachability, LookaheadStatistics
from repro.solver.core import ConstraintSolver
from repro.symexec.state import SymbolicState
from repro.symexec.strategy import ExplorationStrategy


_TERMINAL_KINDS = (NodeKind.END, NodeKind.ERROR)


@dataclass(frozen=True)
class DirectedTraceRow:
    """One row of the Table 1 style exploration trace."""

    trace: Tuple[str, ...]
    ex_write: Tuple[str, ...]
    ex_cond: Tuple[str, ...]
    unex_write: Tuple[str, ...]
    unex_cond: Tuple[str, ...]
    pruned: bool = False

    def __str__(self) -> str:
        path = "<" + ", ".join(self.trace) + (" (no path)>" if self.pruned else ">")
        return (
            f"{path:<55} Ex W={{{', '.join(self.ex_write)}}} "
            f"Ex C={{{', '.join(self.ex_cond)}}} "
            f"UnEx W={{{', '.join(self.unex_write)}}} "
            f"UnEx C={{{', '.join(self.unex_cond)}}}"
        )


class DirectedExplorationStrategy(ExplorationStrategy):
    """The DiSE search strategy over a modified-version CFG.

    Args:
        cfg: the CFG of the modified procedure.  Its reachability and
            region hashes (``cfg.reachability``, ``cfg.regions``) are shared
            with the affected-set analysis, the lookahead and the engine.
        affected: the affected node sets computed by the static analysis.
        record_trace: keep a Table-1 style trace of set evolution (used by
            the trace benchmark; off by default because it is verbose).
        enable_reset: when False, ``ResetUnExploredSet`` calls are skipped
            (ablation only -- this breaks the coverage guarantee).
        enable_pruning: when False, ``should_explore`` always returns True
            (ablation only -- directed execution degenerates to full SE).
        solver: constraint solver backing the feasibility lookahead (shared
            with the executor when the DiSE pipeline constructs the strategy,
            so lookahead queries hit the same caches and incremental
            contexts); a private solver is created when omitted.
        feasibility_lookahead: when True (default), ``AffectedLocIsReachable``
            checks that some *feasible* path -- not merely a CFG path --
            reaches an unexplored affected node before exploring a successor.
            Static reachability alone explores branches whose every path to an
            affected node contradicts the current path condition, generating
            spurious affected path conditions (see
            :mod:`repro.core.lookahead`).
        lookahead_memoize: when False, the lookahead re-walks the CFG suffix
            on every query instead of replaying memoized walk results
            (measurement/ablation switch used by the differential tests and
            ``benchmarks/bench_lookahead.py``).
        complete_covered_paths: an extension beyond the paper's pseudocode.
            When True, a path that already covered affected nodes but whose
            every remaining branch choice was pruned is still driven to the
            exit along the first feasible choice, so every covered
            affected-node sequence yields a fully formed path condition.  The
            paper's algorithm (and the default here) abandons such paths,
            occasionally reporting fewer path conditions; turning this on may
            report a few extra (conservative) ones instead.
    """

    def __init__(
        self,
        cfg: ControlFlowGraph,
        affected: AffectedSets,
        record_trace: bool = False,
        enable_reset: bool = True,
        enable_pruning: bool = True,
        solver: Optional[ConstraintSolver] = None,
        feasibility_lookahead: bool = True,
        lookahead_memoize: bool = True,
        complete_covered_paths: bool = False,
    ):
        self.cfg = cfg
        self.affected = affected
        self.record_trace = record_trace
        self.enable_reset = enable_reset
        self.enable_pruning = enable_pruning
        self.complete_covered_paths = complete_covered_paths

        self.scc = SCCAnalysis(cfg)
        #: ``should_explore``'s per-successor reads, by node id.
        self._reachable = cfg.reachability.by_id
        self._loop_entry_ids = self.scc.loop_entry_ids
        self.lookahead: Optional[FeasibleReachability] = (
            FeasibleReachability(cfg, solver=solver, memoize=lookahead_memoize)
            if feasibility_lookahead
            else None
        )

        # The four global sets of Fig. 6 (initialised in on_run_start).
        self.ex_cond: Set[int] = set()
        self.ex_write: Set[int] = set()
        self.unex_cond: Set[int] = set(affected.acn)
        self.unex_write: Set[int] = set(affected.awn)

        self.trace_rows: List[DirectedTraceRow] = []
        self.prune_count = 0

    # -- lifecycle -------------------------------------------------------------

    def on_run_start(self, initial_state: SymbolicState) -> None:
        self.ex_cond = set()
        self.ex_write = set()
        self.unex_cond = set(self.affected.acn)
        self.unex_write = set(self.affected.awn)
        self.trace_rows = []
        self.prune_count = 0
        if self.record_trace:
            self._record(initial_state.trace, pruned=False)

    # -- UpdateExploredSet (Fig. 6 lines 29-35) ---------------------------------

    def on_state(self, state: SymbolicState) -> None:
        node_id = state.node.node_id
        updated = False
        if node_id in self.unex_write:
            self.unex_write.discard(node_id)
            self.ex_write.add(node_id)
            updated = True
        if node_id in self.unex_cond:
            self.unex_cond.discard(node_id)
            self.ex_cond.add(node_id)
            updated = True
        if self.record_trace and updated:
            self._record(state.trace, pruned=False)

    # -- ResetUnExploredSet (Fig. 6 lines 36-42) --------------------------------

    def _reset_unexplored(self, node_id: int) -> None:
        if node_id in self.ex_write:
            self.ex_write.discard(node_id)
            self.unex_write.add(node_id)
        if node_id in self.ex_cond:
            self.ex_cond.discard(node_id)
            self.unex_cond.add(node_id)

    # -- CheckLoops (Fig. 6 lines 25-28) ----------------------------------------

    def _check_loops(self, node: CFGNode) -> None:
        if not self.scc.is_loop_entry(node):
            return
        for member_id in self.scc.scc_of(node):
            self._reset_unexplored(member_id)

    # -- AffectedLocIsReachable (Fig. 6 lines 12-24) -----------------------------

    def should_explore(self, successor: SymbolicState) -> bool:
        if not self.enable_pruning:
            return True
        node = successor.node
        if node.kind in _TERMINAL_KINDS:
            # Terminal successors are never pruned: following them costs
            # nothing (they have no successors of their own) and it is what
            # lets a completed path report its fully formed path condition and
            # lets assertion violations introduced by a change be reported
            # (paper §5.1: assert de-sugars into a branch plus a throw).
            return True
        node_id = node.node_id
        if node_id in self._loop_entry_ids:
            self._check_loops(node)
        reachable = self._reachable
        statically_reachable = (self.unex_write | self.unex_cond) & reachable[node_id]
        if self.lookahead is not None and statically_reachable:
            # Every state the engine hands to should_explore carries a path
            # condition that passed a feasibility check when its last
            # constraint was appended, so the lookahead can skip re-proving
            # it (assume_feasible).
            coverable = self.lookahead.reachable_targets(
                successor, statically_reachable, assume_feasible=True
            )
        else:
            coverable = statically_reachable
        if coverable and self.enable_reset and (self.ex_write or self.ex_cond):
            # Each reset only moves its own node back to the unexplored sets
            # and ``explored`` is a snapshot, so the order does not matter.
            explored = self.ex_write | self.ex_cond
            behind = set().union(*map(reachable.__getitem__, coverable))
            for explored_id in explored & behind:
                self._reset_unexplored(explored_id)
        if not coverable:
            self.prune_count += 1
            if self.record_trace:
                self._record(successor.trace, pruned=True)
            return False
        return True

    # -- summary-cache protocol --------------------------------------------------

    @property
    def supports_partial_replay(self) -> bool:
        """Segment replay keeps native order, but it skips the in-segment
        ``on_state`` and ``should_explore`` callbacks that update the mutable
        Fig. 6 sets; only whole-suffix replay, which restores its region's
        snapshot of the sets, is sound here.
        """
        return False

    def _canonical(self, ids: Set[int], region: RegionSignature) -> FrozenSet[int]:
        index = region.index
        return frozenset(index[i] for i in ids if i in index)

    def replay_token(self, state: SymbolicState, region: RegionSignature) -> Optional[Hashable]:
        """The in-region slice of the Fig. 6 sets, in canonical coordinates.

        Every decision this strategy takes while a subtree at ``state`` is
        explored depends only on (a) the region's structure, captured by the
        cache's region digest, and (b) the region slice of the four global
        sets: ``should_explore`` filters targets by reachability from an
        in-region node (so only in-region unexplored nodes matter), the
        reset rule touches nodes reachable *from* an in-region target (again
        in-region), and ``CheckLoops`` resets SCC members of in-region nodes
        (SCCs never straddle the region border because regions are closed
        under reachability).  With ``complete_covered_paths`` the
        force-completion rule additionally inspects whether the *prefix*
        trace covered an affected node, so that bit joins the token.
        Returns ``None`` while recording a Table-1 trace: replay skips the
        per-state callbacks the trace rows are built from.
        """
        if self.record_trace:
            return None
        token: Tuple[Hashable, ...] = (
            self._canonical(self.unex_cond, region),
            self._canonical(self.unex_write, region),
            self._canonical(self.ex_cond, region),
            self._canonical(self.ex_write, region),
            self.enable_reset,
            self.enable_pruning,
        )
        if self.complete_covered_paths:
            affected_ids = self.affected.acn | self.affected.awn
            token += (True, any(node_id in affected_ids for node_id in state.trace))
        return token

    def region_snapshot(self, region: RegionSignature) -> Hashable:
        return (
            self._canonical(self.unex_cond, region),
            self._canonical(self.unex_write, region),
            self._canonical(self.ex_cond, region),
            self._canonical(self.ex_write, region),
        )

    def restore_region(self, region: RegionSignature, snapshot: Hashable) -> None:
        """Apply a recorded subtree's net effect on the in-region sets."""
        index = region.index
        canonical_ids = region.canonical_ids
        for attribute, canonical in zip(
            ("unex_cond", "unex_write", "ex_cond", "ex_write"), snapshot
        ):
            current: Set[int] = getattr(self, attribute)
            rebuilt = {i for i in current if i not in index}
            rebuilt.update(canonical_ids[position] for position in canonical)
            setattr(self, attribute, rebuilt)

    def lookahead_statistics(self) -> Optional[LookaheadStatistics]:
        return self.lookahead.statistics if self.lookahead is not None else None

    def lookahead_shares_solver(self, solver: ConstraintSolver) -> bool:
        return self.lookahead is not None and self.lookahead.solver is solver

    # -- completion fallback -------------------------------------------------------

    def should_force_completion(self, state: SymbolicState) -> bool:
        """Optionally let a path that covered affected nodes run to completion.

        Only active when ``complete_covered_paths`` is set (see the class
        docstring); the default mirrors the paper's pseudocode and abandons
        the path.  Paths that never touched an affected node are always left
        pruned, which is what produces the zero-path-condition rows of
        Table 2.
        """
        if not (self.enable_pruning and self.complete_covered_paths):
            return False
        affected_ids = self.affected.acn | self.affected.awn
        return any(node_id in affected_ids for node_id in state.trace)

    # -- trace -------------------------------------------------------------------

    def _record(self, trace: Tuple[int, ...], pruned: bool) -> None:
        names = tuple(
            self.cfg.node(node_id).name
            for node_id in trace
            if node_id >= 0  # skip synthetic begin/end in the printed sequence
        )
        self.trace_rows.append(
            DirectedTraceRow(
                trace=names,
                ex_write=self._names(self.ex_write),
                ex_cond=self._names(self.ex_cond),
                unex_write=self._names(self.unex_write),
                unex_cond=self._names(self.unex_cond),
                pruned=pruned,
            )
        )

    def _names(self, ids: Set[int]) -> Tuple[str, ...]:
        return tuple(self.cfg.node(i).name for i in sorted(ids))
