"""Exploration strategies: hooks that let clients steer the symbolic executor.

Full (traditional) symbolic execution uses :class:`ExploreEverything`.  The
DiSE directed search (``repro.core.directed``) plugs in a strategy whose
``should_explore`` implements ``AffectedLocIsReachable`` and whose
``on_state`` implements ``UpdateExploredSet`` from Figure 6 of the paper.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.cfg.region_hash import RegionSignature
from repro.symexec.state import SymbolicState


class ExplorationStrategy:
    """Base strategy: explore every feasible successor.

    The engine consults ``should_explore`` only at *choice points*, i.e. for
    the successors of conditional branch nodes, which mirrors an SPF-style
    implementation where search strategies intercept choice generators.
    Straight-line transitions (assignments, entry/exit nodes) are always
    followed.
    """

    def on_run_start(self, initial_state: SymbolicState) -> None:
        """Called once before exploration starts."""

    def on_state(self, state: SymbolicState) -> None:
        """Called when a state is visited (before its successors are generated)."""

    def should_explore(self, successor: SymbolicState) -> bool:
        """Decide whether a feasible branch successor should be explored."""
        return True

    def should_force_completion(self, state: SymbolicState) -> bool:
        """Whether to explore one pruned successor when *all* were pruned.

        Called when every feasible successor of a branch state was rejected by
        ``should_explore``.  Returning True makes the engine follow the first
        feasible successor anyway so the current path can run to completion
        (DiSE uses this so that a path that has already covered affected nodes
        still produces a fully formed path condition containing one feasible
        instance of the remaining, unaffected branches).
        """
        return False

    def on_path_complete(self, state: SymbolicState, is_error: bool) -> None:
        """Called when a path terminates at the exit or at an error node."""

    def on_run_end(self) -> None:
        """Called once after exploration finishes."""

    # -- summary-cache protocol (see repro.symexec.summary_cache) -------------

    @property
    def supports_partial_replay(self) -> bool:
        """Whether segment (node-to-post-dominator) replay is sound.

        Partial replay explores all of a segment's internal paths before any
        of the boundary continuations, while native search interleaves them.
        That reordering is invisible to a strategy whose decisions are a pure
        function of the state being explored (the base contract), but not to
        one carrying global mutable sets -- such strategies must override
        this to return False and rely on whole-suffix replay only.
        """
        return True

    def replay_token(self, state: SymbolicState, region: RegionSignature) -> Optional[Hashable]:
        """Everything this strategy's subtree decisions depend on, as a key part.

        The token must capture *all* strategy state that can influence how
        the subtree rooted at ``state`` is explored, expressed in canonical
        region coordinates so it matches across program versions.  Return
        ``None`` to veto caching at this root entirely (e.g. while recording
        a human-readable trace that replay could not reproduce).  The base
        strategy is stateless, so any two roots are interchangeable.
        """
        return ()

    def region_snapshot(self, region: RegionSignature) -> Optional[Hashable]:
        """The strategy's in-region state after a subtree finished, or None."""
        return None

    def restore_region(self, region: RegionSignature, snapshot: Hashable) -> None:
        """Re-apply a recorded :meth:`region_snapshot` during replay."""

    def lookahead_statistics(self):
        """The strategy's solver-backed lookahead statistics bucket, if any.

        The engine uses this to subtract lookahead solver traffic from
        :class:`~repro.symexec.engine.ExecutionStatistics`, so that
        ``solver_queries`` measures only the executor's own work.
        """
        return None

    def lookahead_shares_solver(self, solver) -> bool:
        """Whether the lookahead runs on the *same* solver instance.

        The engine may subtract the lookahead bucket's deltas from its own
        solver deltas only when both meter the same underlying counters; a
        lookahead with a private solver is reported but not subtracted.
        """
        return False


class ExploreEverything(ExplorationStrategy):
    """The strategy used by full symbolic execution: never prune."""
