"""The symbolic execution engine.

The engine performs a stateless depth-first exploration of a procedure's CFG
(the same regime as Symbolic PathFinder, see paper §4.1): it keeps no visited
set, re-checks path-condition satisfiability every time a branch constraint is
appended, and bounds loops/recursion with an optional depth bound on the
number of branch decisions.

The engine is shared between *full* symbolic execution and DiSE's *directed*
symbolic execution: the latter only differs in the
:class:`~repro.symexec.strategy.ExplorationStrategy` it plugs in.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cfg.builder import RETURN_VARIABLE, build_cfg
from repro.cfg.ir import FALSE_EDGE, TRUE_EDGE, CFGNode, NodeKind
from repro.cfg.region_hash import RegionSignature
from repro.lang.ast_nodes import BoolLiteral, GlobalDecl, IntLiteral, Procedure, Program, UnaryOp
from repro.solver.context import SolverContext
from repro.solver.core import BudgetExhausted, ConstraintSolver, DeadlineBudget
from repro.solver.terms import (
    BOOL_SORT,
    INT_SORT,
    BoolConst,
    IntConst,
    Symbol,
    Term,
    negate,
    term_symbols,
)
from repro.symexec.state import (
    Bindings,
    CallFrame,
    PathCondition,
    SymbolicState,
    bound_term,
    merge_bindings,
    replace_binding,
)
from repro.symexec.strategy import ExplorationStrategy, ExploreEverything
from repro.symexec.summary import MethodSummary, PathRecord
from repro.symexec.summary_cache import SubtreeSummary, SummaryCache, replay_records
from repro.symexec.tree import ExecutionTree, ExecutionTreeNode

# The node kinds the search compares at every visited state, read once: on
# CPython 3.11 an enum member lookup (``NodeKind.BRANCH``) costs about 0.1 µs,
# several times the comparison itself.
_BRANCH = NodeKind.BRANCH
_ASSIGN = NodeKind.ASSIGN
_CALL = NodeKind.CALL
_CALL_RETURN = NodeKind.CALL_RETURN
_END = NodeKind.END
_ERROR = NodeKind.ERROR
_ROOT_KINDS = (NodeKind.BEGIN, NodeKind.BRANCH, NodeKind.CALL)
_ARM_LABELS = (TRUE_EDGE, FALSE_EDGE)


@dataclass
class ExecutionStatistics:
    """Metrics reported for one symbolic execution run (paper §4.2.2)."""

    states_explored: int = 0
    path_conditions: int = 0
    error_paths: int = 0
    infeasible_branches: int = 0
    pruned_by_strategy: int = 0
    depth_bound_hits: int = 0
    elapsed_seconds: float = 0.0
    #: Solver traffic attributable to the *executor's own* branch checks;
    #: lookahead traffic is reported separately in the ``lookahead_*`` fields.
    solver_queries: int = 0
    solver_cache_hits: int = 0
    incremental_hits: int = 0
    prefix_reuses: int = 0
    #: Solver traffic spent inside the strategy's feasibility lookahead.
    lookahead_calls: int = 0
    lookahead_solver_queries: int = 0
    lookahead_cache_hits: int = 0
    lookahead_incremental_hits: int = 0
    lookahead_prefix_reuses: int = 0
    #: Lookahead queries answered from the memoized walk cache (no CFG walk,
    #: no solver traffic) and context alignments performed for the rest.
    lookahead_walk_memo_hits: int = 0
    lookahead_prefix_syncs: int = 0
    #: Cross-version summary cache activity during this run.
    summary_cache_hits: int = 0
    summary_cache_misses: int = 0
    summary_cache_stores: int = 0
    #: Cache misses where the probed (digest, fingerprint, budget) had an
    #: entry under a *different* strategy token, so the subtree fell back to
    #: native exploration purely because the strategy state did not match.
    strategy_token_misses: int = 0
    #: Completed paths emitted by cache replay instead of native exploration
    #: (these appear in the summary but not in ``states_explored``).
    replayed_paths: int = 0
    #: Segment replays: cache hits that skipped a region up to its immediate
    #: post-dominator and resumed native exploration at the boundary.
    replayed_segments: int = 0
    #: Always 0: the run has no generalised call summaries to fall back
    #: from.  ``perfbench/ledger.py`` reads it with ``getattr`` for its
    #: ``symexec.call_fallbacks`` metric; the benchmark change of ROADMAP
    #: item 1 drops that metric, and this field with it.
    generalized_call_fallbacks: int = 0
    #: Feasibility decisions answered conservatively (both branch sides
    #: explored) because the run's deadline budget was exhausted.
    degraded_decisions: int = 0
    #: 1 when the run ended with its deadline budget exhausted (0/1 rather
    #: than bool so merged statistics can sum it across legs).  Covers
    #: degradation that never reached a branch decision, e.g. a budget
    #: spent entirely inside the lookahead's conservative bailouts.
    deadline_exhausted: int = 0

    @property
    def completeness(self) -> str:
        """``"complete"`` for an exact run, ``"degraded"`` when any answer
        was conservative because the deadline budget ran out."""
        if self.degraded_decisions or self.deadline_exhausted:
            return "degraded"
        return "complete"

    def as_dict(self) -> Dict[str, float]:
        return {
            "states_explored": self.states_explored,
            "path_conditions": self.path_conditions,
            "error_paths": self.error_paths,
            "infeasible_branches": self.infeasible_branches,
            "pruned_by_strategy": self.pruned_by_strategy,
            "depth_bound_hits": self.depth_bound_hits,
            "elapsed_seconds": self.elapsed_seconds,
            "solver_queries": self.solver_queries,
            "solver_cache_hits": self.solver_cache_hits,
            "incremental_hits": self.incremental_hits,
            "prefix_reuses": self.prefix_reuses,
            "lookahead_calls": self.lookahead_calls,
            "lookahead_solver_queries": self.lookahead_solver_queries,
            "lookahead_cache_hits": self.lookahead_cache_hits,
            "lookahead_incremental_hits": self.lookahead_incremental_hits,
            "lookahead_prefix_reuses": self.lookahead_prefix_reuses,
            "lookahead_walk_memo_hits": self.lookahead_walk_memo_hits,
            "lookahead_prefix_syncs": self.lookahead_prefix_syncs,
            "summary_cache_hits": self.summary_cache_hits,
            "summary_cache_misses": self.summary_cache_misses,
            "summary_cache_stores": self.summary_cache_stores,
            "strategy_token_misses": self.strategy_token_misses,
            "replayed_paths": self.replayed_paths,
            "replayed_segments": self.replayed_segments,
            "degraded_decisions": self.degraded_decisions,
            "deadline_exhausted": self.deadline_exhausted,
        }


@dataclass
class ExecutionResult:
    """Everything produced by one run: summary, statistics and optional tree."""

    summary: MethodSummary
    statistics: ExecutionStatistics
    tree: Optional[ExecutionTree] = None

    @property
    def path_conditions(self) -> List[PathCondition]:
        return self.summary.path_conditions


class _Recording:
    """An open region recording.

    A suffix recording's paths are the run summary's records from ``start``
    on when it closes: the depth-first search finishes a subtree before it
    leaves the root.  A segment recording (its signature has a boundary)
    collects ``captures`` instead, in native DFS order: each path's first
    arrival at the boundary and each error path that died before it.  The
    root is kept as the values the replay records are derived from, not as
    a state, whose CFG node would keep this version's CFG alive.
    """

    __slots__ = (
        "signature",
        "key",
        "start",
        "environment",
        "prefix_len",
        "trace_len",
        "captures",
        "aborted",
    )

    def __init__(self, root_state: SymbolicState, signature: RegionSignature, key, start: int):
        self.signature = signature
        self.key = key
        self.start = start
        self.environment = root_state.environment
        self.prefix_len = len(root_state.path_condition.constraints)
        self.trace_len = len(root_state.trace)
        self.captures: Optional[List[PathRecord]] = (
            None if signature.boundary_id is None else []
        )
        #: Set when the recording is not exact and must not be stored: the
        #: deadline budget degraded a decision in the subtree, or (for a
        #: segment) a suffix replay emitted paths without their boundary
        #: arrivals.
        self.aborted = False


class _Frame:
    """One depth-first-search stack frame: a visited state and its successors.

    Only a state whose successors need a frame gets one: a branch, a state
    with several or no successors, and a state that opened a recording
    (the recording closes when the frame pops).  A straight-line run is
    stepped through inline (:meth:`SymbolicExecutor._enter`).

    ``is_choice_point`` is set once: strategies are consulted for the
    successors of branch nodes.  This mirrors the paper's Fig. 6, where
    ``AffectedLocIsReachable`` is evaluated when symbolic execution is about
    to follow a conditional branch outcome; straight-line transitions
    (assignments, entry/exit) are always followed so that a path which has
    passed its last branch runs to completion and reports a fully formed
    path condition.
    """

    __slots__ = (
        "state",
        "successors",
        "index",
        "tree_node",
        "explored_any",
        "recordings",
        "is_choice_point",
    )

    def __init__(
        self,
        state: SymbolicState,
        successors: List[Tuple[SymbolicState, str]],
        tree_node: Optional[ExecutionTreeNode],
        recordings: Optional[List] = None,
    ):
        self.state = state
        self.successors = successors
        self.index = 0
        self.tree_node = tree_node
        self.explored_any = False
        self.recordings = recordings
        self.is_choice_point = state.node.kind is _BRANCH and len(successors) > 0


class SymbolicExecutor:
    """Full symbolic execution of one MiniLang procedure.

    Args:
        program: the program containing the procedure (supplies global
            variable declarations).  May also be a bare :class:`Procedure`,
            in which case there are no globals.
        procedure_name: the procedure to execute symbolically (defaults to
            the first procedure of the program).  Its CFG is
            ``build_cfg(program, procedure_name)``, the one every consumer of
            the parse shares; the summary cache keys on its ``cfg.regions``.
        solver: an optional shared constraint solver instance.
        depth_bound: maximum number of branch decisions per path (``None``
            means unbounded, which is safe only for loop-free procedures).
        strategy: the exploration strategy (defaults to explore-everything).
        build_tree: when True, materialise the symbolic execution tree.
        tracked_variables: restrict the variables stored in tree nodes.
        summary_cache: optional cross-version subtree summary cache (see
            :mod:`repro.symexec.summary_cache`); subtrees whose region,
            entry environment, strategy context and depth budget match a
            cached execution are replayed instead of re-executed.  Disabled
            while building the execution tree (replay materialises no tree
            nodes).
    """

    def __init__(
        self,
        program,
        procedure_name: Optional[str] = None,
        solver: Optional[ConstraintSolver] = None,
        depth_bound: Optional[int] = None,
        strategy: Optional[ExplorationStrategy] = None,
        build_tree: bool = False,
        tracked_variables: Optional[Sequence[str]] = None,
        summary_cache: Optional[SummaryCache] = None,
    ):
        if isinstance(program, Procedure):
            self.program = Program(globals=[], procedures=[program])
            self.procedure = program
        elif isinstance(program, Program):
            self.program = program
            if procedure_name is None:
                if not program.procedures:
                    raise ValueError("Program has no procedures")
                self.procedure = program.procedures[0]
            else:
                self.procedure = program.procedure(procedure_name)
        else:
            raise TypeError("program must be a Program or a Procedure")
        self.cfg = build_cfg(self.program, self.procedure.name)
        #: Names of the program's globals: the only environment entries that
        #: survive a call-scope switch (callees see current global values and
        #: their writes to globals persist past the return).
        self._global_names = frozenset(decl.name for decl in self.program.globals)
        self.solver = solver or ConstraintSolver()
        #: Incremental context mirroring the DFS branch stack: at every branch
        #: only the delta constraint is linearised and propagated, instead of
        #: re-solving the whole path condition from scratch.
        self.context = SolverContext(self.solver)
        self.depth_bound = depth_bound
        self.strategy = strategy or ExploreEverything()
        self.build_tree = build_tree
        self.tracked_variables = list(tracked_variables) if tracked_variables else None
        self.summary_cache = summary_cache if not build_tree else None
        #: Open recordings, innermost last; the segment ones also in
        #: ``_segment_recordings``, which every visited state is checked against.
        self._recordings: List[_Recording] = []
        self._segment_recordings: List[_Recording] = []
        self._step_targets = self.cfg.step_targets
        #: The run's memos, new for each run: node values (see
        #: :meth:`_evaluate`) and branch-condition negations by ``term_id``.
        self._values: Dict[tuple, object] = {}
        self._negations: Dict[int, Term] = {}
        self.statistics = ExecutionStatistics()

    # -- initial state -------------------------------------------------------

    def initial_environment(self) -> Dict[str, Term]:
        """Symbolic inputs for parameters, constants/symbols for globals."""
        environment: Dict[str, Term] = {}
        for decl in self.program.globals:
            environment[decl.name] = self._global_initial_value(decl)
        for param in self.procedure.params:
            sort = BOOL_SORT if param.type_name == "bool" else INT_SORT
            environment[param.name] = Symbol(param.name, sort)
        return environment

    @staticmethod
    def _global_initial_value(decl: GlobalDecl) -> Term:
        if decl.init is None:
            # Uninitialised globals are treated as symbolic inputs, matching
            # the paper's testX example where the field y is symbolic.
            sort = BOOL_SORT if decl.type_name == "bool" else INT_SORT
            return Symbol(decl.name, sort)
        init = decl.init
        if isinstance(init, IntLiteral):
            return IntConst(init.value)
        if isinstance(init, BoolLiteral):
            return BoolConst(init.value)
        if isinstance(init, UnaryOp) and isinstance(init.operand, IntLiteral):
            return IntConst(-init.operand.value)
        raise ValueError(f"Unsupported global initialiser: {init}")

    def initial_state(self) -> SymbolicState:
        assert self.cfg.begin is not None
        return SymbolicState.make(
            node=self.cfg.begin,
            environment=self.initial_environment(),
            trace=(self.cfg.begin.node_id,),
        )

    # -- exploration ---------------------------------------------------------

    def run(self) -> ExecutionResult:
        """Explore the procedure and return summary + statistics (+ tree)."""
        self.statistics = ExecutionStatistics()
        summary = MethodSummary(self.procedure.name)
        self._recordings = []
        self._segment_recordings = []
        self._values, self._negations = {}, {}
        start_queries = self.solver.statistics.queries
        start_hits = self.solver.statistics.cache_hits
        start_incremental = self.solver.statistics.incremental_hits
        start_prefix = self.solver.statistics.prefix_reuses
        start_token_misses = (
            self.summary_cache.statistics.token_misses
            if self.summary_cache is not None
            else 0
        )
        lookahead = self.strategy.lookahead_statistics()
        look_start = lookahead.snapshot() if lookahead is not None else None
        started = time.perf_counter()

        initial = self.initial_state()
        self.strategy.on_run_start(initial)
        tree_root: Optional[ExecutionTreeNode] = None
        if self.build_tree:
            tree_root = ExecutionTree.node_from_state(initial, self.tracked_variables)

        # Iterative DFS that mirrors the recursive structure of Fig. 6: each
        # stack frame lazily iterates a state's successors so that the
        # strategy's should_explore sees set updates made while exploring
        # earlier siblings' subtrees.  The strategy is consulted only at
        # choice points (successors of branch nodes); if it rejects every
        # choice it may ask for the first feasible one to be taken anyway so
        # the current path still completes (should_force_completion).
        stack: List[_Frame] = [self._enter(initial, "", tree_root, summary)]
        while stack:
            frame = stack[-1]
            if frame.index >= len(frame.successors):
                if (
                    frame.is_choice_point
                    and not frame.explored_any
                    and self.strategy.should_force_completion(frame.state)
                ):
                    frame.explored_any = True
                    successor, edge_label = frame.successors[0]
                    stack.append(self._enter_child(successor, edge_label, frame, summary))
                    continue
                if frame.recordings:
                    for recording in reversed(frame.recordings):
                        self._finalize_recording(recording, summary)
                stack.pop()
                continue
            successor, edge_label = frame.successors[frame.index]
            frame.index += 1
            if frame.is_choice_point and not self.strategy.should_explore(successor):
                self.statistics.pruned_by_strategy += 1
                continue
            frame.explored_any = True
            stack.append(self._enter_child(successor, edge_label, frame, summary))

        self.strategy.on_run_end()
        if self._deadline_degraded():
            self.statistics.deadline_exhausted = 1
        self.statistics.elapsed_seconds = time.perf_counter() - started
        self.statistics.path_conditions = len(summary)
        self.statistics.solver_queries = self.solver.statistics.queries - start_queries
        self.statistics.solver_cache_hits = self.solver.statistics.cache_hits - start_hits
        self.statistics.incremental_hits = (
            self.solver.statistics.incremental_hits - start_incremental
        )
        self.statistics.prefix_reuses = self.solver.statistics.prefix_reuses - start_prefix
        if self.summary_cache is not None:
            self.statistics.strategy_token_misses = (
                self.summary_cache.statistics.token_misses - start_token_misses
            )
        if lookahead is not None and look_start is not None:
            calls, queries, cache_hits, incremental, prefix_reuses, memo_hits, prefix_syncs = (
                now - then for now, then in zip(lookahead.snapshot(), look_start)
            )
            self.statistics.lookahead_calls = calls
            self.statistics.lookahead_solver_queries = queries
            self.statistics.lookahead_cache_hits = cache_hits
            self.statistics.lookahead_incremental_hits = incremental
            self.statistics.lookahead_prefix_reuses = prefix_reuses
            self.statistics.lookahead_walk_memo_hits = memo_hits
            self.statistics.lookahead_prefix_syncs = prefix_syncs
            if self.strategy.lookahead_shares_solver(self.solver):
                # The lookahead metered the executor's solver, so its traffic
                # is carved out of the raw deltas: the executor-facing
                # counters keep only the engine's own branch checks.  A
                # lookahead on a private solver is reported but not
                # subtracted (its work never entered the raw deltas).
                self.statistics.solver_queries -= queries
                self.statistics.solver_cache_hits -= cache_hits
                self.statistics.incremental_hits -= incremental
                self.statistics.prefix_reuses -= prefix_reuses
        tree = ExecutionTree(tree_root) if self.build_tree else None
        return ExecutionResult(summary=summary, statistics=self.statistics, tree=tree)

    def _enter_child(
        self,
        successor: SymbolicState,
        edge_label: str,
        parent_frame: "_Frame",
        summary: MethodSummary,
    ) -> "_Frame":
        """Enter a successor of ``parent_frame``'s state (see :meth:`_enter`)."""
        tree_node = parent_frame.tree_node
        if tree_node is not None:
            tree_node = self._tree_child(tree_node, successor, edge_label)
        return self._enter(successor, edge_label, tree_node, summary)

    def _enter(
        self,
        state: SymbolicState,
        edge_label: str,
        tree_node: Optional[ExecutionTreeNode],
        summary: MethodSummary,
    ) -> "_Frame":
        """Visit ``state`` and the straight-line run from it; return the run's last frame.

        A visited state that is not a branch, has exactly one successor and
        opened no recording would get a frame whose only work is to push
        that successor's frame and then pop: its successor is visited
        inline instead.  Every state of the run still goes through
        :meth:`_visit`, in DFS order, and gets its tree node under its
        predecessor's; only the run's last state gets a frame.
        """
        while True:
            successors, recordings = self._visit(state, summary, edge_label)
            if recordings is not None or len(successors) != 1 or state.node.kind is _BRANCH:
                return _Frame(state, successors, tree_node, recordings)
            state, edge_label = successors[0]
            if tree_node is not None:
                tree_node = self._tree_child(tree_node, state, edge_label)

    def _tree_child(
        self, parent: ExecutionTreeNode, state: SymbolicState, edge_label: str
    ) -> ExecutionTreeNode:
        child = ExecutionTree.node_from_state(state, self.tracked_variables, edge_label)
        parent.add_child(child)
        return child

    # -- state processing ----------------------------------------------------

    def _visit(
        self,
        state: SymbolicState,
        summary: MethodSummary,
        edge_label: str = "",
    ) -> Tuple[List[Tuple[SymbolicState, str]], Optional[List]]:
        """Count, record and expand one state.

        Returns ``(feasible successors, opened recordings)``; recordings are
        attached to the state's DFS frame and finalised into the summary
        cache when the frame is popped, i.e. when the whole subtree below
        the state has been explored.
        """
        self.statistics.states_explored += 1
        node = state.node

        if self._segment_recordings:
            self._capture_boundary_crossings(state)

        if self.depth_bound is not None and state.depth > self.depth_bound:
            self.statistics.depth_bound_hits += 1
            return [], None

        self.strategy.on_state(state)

        kind = node.kind
        if kind is _END:
            self._emit(summary, self._record(state, is_error=False))
            self.strategy.on_path_complete(state, is_error=False)
            return [], None
        if kind is _ERROR:
            self.statistics.error_paths += 1
            self._emit(summary, self._record(state, is_error=True))
            self.strategy.on_path_complete(state, is_error=True)
            return [], None
        if self.summary_cache is not None and self._cache_root_eligible(node, edge_label):
            successors, recordings = self._probe_cache(state, summary)
            return self._successors(state) if successors is None else successors, recordings
        return self._successors(state), None

    def _record(self, state: SymbolicState, is_error: bool) -> PathRecord:
        return PathRecord(
            path_condition=state.path_condition,
            final_environment=state.environment,
            trace=state.trace,
            is_error=is_error,
        )

    def _emit(self, summary: MethodSummary, record: PathRecord) -> None:
        """Add a completed path record to the summary and open segment recordings.

        Open subtree recordings need nothing: each closes over the slice of
        ``summary`` emitted since it opened.
        """
        summary.add(record)
        if record.is_error and self._segment_recordings:
            for segment in self._segment_recordings:
                if segment.signature.boundary_id not in record.trace[segment.trace_len:]:
                    # The path died at an error node before crossing the
                    # segment boundary: a terminal in-segment record.
                    segment.captures.append(record)

    def _capture_boundary_crossings(self, state: SymbolicState) -> None:
        """Record ``state`` as a continuation of segments it just exited."""
        node_id = state.node.node_id
        for segment in self._segment_recordings:
            if node_id != segment.signature.boundary_id:
                continue
            if state.trace[segment.trace_len:].count(node_id) == 1:
                # The boundary is not part of the segment's canonical
                # numbering, so the captured trace stops before it.
                segment.captures.append(
                    PathRecord(state.path_condition, state.environment, state.trace[:-1])
                )

    # -- cross-version summary cache ----------------------------------------

    @staticmethod
    def _cache_root_eligible(node: CFGNode, edge_label: str) -> bool:
        """Whether a state is a worthwhile summary root.

        Recording at every visited state would store one summary per state
        (O(paths x depth) memory for near-zero extra reuse).  Roots where a
        future hit is plausible are the procedure entry (whole-run replay),
        branch nodes (a diff upstream re-enters the same decision diamond),
        branch arms (a diff inside one arm leaves the sibling arm's
        suffix intact) and ``CALL`` nodes (the per-procedure summary root:
        an unchanged callee replays under every version that reaches the
        call with a matching entry environment) -- interior straight-line
        nodes are always dominated by one of these.
        """
        return node.kind in _ROOT_KINDS or edge_label in _ARM_LABELS

    def _fingerprint(self, env, signature: RegionSignature, prefix_constraints, frames=()):
        """Environment fingerprint for a region entry, or None when the
        observable environment shares symbols with the path-condition prefix
        (replay would not transfer to other roots in that case).

        The fingerprint is a tuple of ``(name, term)`` pairs, ``term`` being
        None for an unbound name.  Terms are hash-consed, so equal values
        are the same object, and a cache key holding the pairs keeps its
        terms interned for as long as the entry lives.

        Read variables are what the subtree can observe, so their symbols
        must be prefix-independent.  Write-only variables are fingerprinted
        as well -- cached writes are stored as deltas against the recording
        root, so a write that coincided with the root's value leaves no
        delta and replay is only exact when the entry value matches -- but
        their symbols need no disjointness check, since their entry values
        merely pass through to paths that do not overwrite them.

        For a root inside a spliced callee, the state's call frames are part
        of the observable entry too: the frames' saved bindings are restored
        by in-region ``CALL_RETURN`` pops and then flow into post-return
        behaviour, so every saved binding joins the fingerprint (and the
        prefix-disjointness requirement) exactly like a read variable.
        """
        fingerprint = []
        region_symbols = set()
        for name in signature.used_vars:
            term = env.get(name)
            fingerprint.append((name, term))
            if term is not None:
                region_symbols.update(term_symbols(term))
        for position, frame in enumerate(frames):
            fingerprint.append((("@frame", position, frame.callee), None))
            for name, term in frame.saved:
                fingerprint.append((("@saved", position, name), term))
                if term is not None:
                    region_symbols.update(term_symbols(term))
        if region_symbols:
            for constraint in prefix_constraints:
                if region_symbols & term_symbols(constraint):
                    return None
        for name in signature.write_only_vars:
            fingerprint.append((name, env.get(name)))
        return tuple(fingerprint)

    def _region_keys(self, state: SymbolicState):
        """Yield ``(signature, key)`` for each region at ``state`` that may replay.

        The whole suffix comes first (maximal savings), then -- for
        strategies that allow partial replay -- the segment up to the
        immediate post-dominator, fetched only if the caller asks for it.
        A region whose fingerprint shares symbols with the path-condition
        prefix is left out.
        """
        node = state.node
        signature = self.cfg.regions.signature(node)
        token = self.strategy.replay_token(state, signature)
        if token is None:
            return
        prefix = state.path_condition.constraints
        env = state.env_map()
        budget = None if self.depth_bound is None else self.depth_bound - state.depth
        fingerprint = self._fingerprint(env, signature, prefix, state.frames)
        if fingerprint is not None:
            yield signature, ("suffix", signature.digest, fingerprint, token, budget)
        if self.strategy.supports_partial_replay:
            segment = self.cfg.regions.segment(node)
            if segment is not None:
                fingerprint = self._fingerprint(env, segment, prefix, state.frames)
                if fingerprint is not None:
                    yield segment, ("segment", segment.digest, fingerprint, token, budget)

    def _probe_cache(self, state: SymbolicState, summary: MethodSummary):
        """Replay a region at ``state`` from the cache, or record the misses.

        Returns ``(successors, opened recordings)``: ``successors`` is None
        when nothing was replayed, and every region probed before the hit
        (or all of them) got a recording, closed when the state's frame pops.
        """
        recordings: List[_Recording] = []
        for signature, key in self._region_keys(state):
            cached = self.summary_cache.lookup(key)
            if cached is not None:
                self.statistics.summary_cache_hits += 1
                return self._replay(state, signature, cached, summary), recordings or None
            self.statistics.summary_cache_misses += 1
            recording = _Recording(state, signature, key, len(summary))
            self._recordings.append(recording)
            if recording.captures is not None:
                self._segment_recordings.append(recording)
            recordings.append(recording)
        return None, recordings or None

    def _replay(
        self,
        state: SymbolicState,
        signature: RegionSignature,
        cached: SubtreeSummary,
        summary: MethodSummary,
        successors: Optional[List[Tuple[SymbolicState, str]]] = None,
    ) -> List[Tuple[SymbolicState, str]]:
        """Replay a cached region at ``state``; returns ``successors`` extended.

        A suffix's records are completed paths, emitted as
        :meth:`PathRecord.replayed` views whose environment and trace are
        derived only if something reads them.  A segment's records become
        successor states, in recorded order: a continuation at the boundary
        (chain-expanded by :meth:`_expand_replayed`), an in-segment error at
        its error node, where ``_visit`` emits it at its native position.
        """
        if successors is None:
            successors = []
        base_constraints = state.path_condition.constraints
        base_trace = state.trace
        base_env = state.environment
        canonical_ids = signature.canonical_ids
        if signature.boundary_id is None:
            for segment in self._segment_recordings:
                segment.aborted = True
            for replay in cached.records:
                record = PathRecord.replayed(
                    PathCondition(base_constraints + replay.constraints),
                    replay,
                    base_env,
                    base_trace,
                    canonical_ids,
                )
                if replay.is_error:
                    self.statistics.error_paths += 1
                self.statistics.replayed_paths += 1
                self._emit(summary, record)
        else:
            self.statistics.replayed_segments += 1
            boundary = self.cfg.node(signature.boundary_id)
            for replay in cached.records:
                trace = base_trace + tuple([canonical_ids[index] for index in replay.trace])
                if replay.is_error:
                    node = self.cfg.node(trace[-1])
                else:
                    node, trace = boundary, trace + (boundary.node_id,)
                successor = SymbolicState(
                    node=node,
                    environment=merge_bindings(base_env, replay.writes, replay.removed),
                    path_condition=PathCondition(base_constraints + replay.constraints),
                    trace=trace,
                    # Segments are call-balanced (see RegionHashIndex.segment),
                    # so the boundary is reached with the root's frames
                    # intact; nothing reads an error state's frames.
                    frames=state.frames,
                )
                if replay.is_error:
                    successors.append((successor, ""))
                else:
                    self._expand_replayed(successor, summary, successors)
        if cached.strategy_after is not None:
            self.strategy.restore_region(signature, cached.strategy_after)
        return successors

    def _expand_replayed(
        self,
        state: SymbolicState,
        summary: MethodSummary,
        successors: List[Tuple[SymbolicState, str]],
    ) -> None:
        """Chain-expand a replayed continuation, or defer it to the DFS.

        A continuation landing on a root whose suffix or segment is cached
        is replayed at once, so a chain of unchanged diamonds costs no
        visited states.  Like ``_visit`` it checks the depth bound and fires
        the boundary capture on a hit; its probes peek (the DFS counts a
        miss when it visits the state).  Once ``successors`` holds a state,
        the DFS explores that state's subtree first, so an expansion may not
        emit: a suffix hit and a state at an open segment recording's
        boundary are deferred too, for ``_visit`` to replay or capture in
        turn.  Segment hits keep expanding.
        """
        if self.depth_bound is not None and state.depth > self.depth_bound:
            self.statistics.depth_bound_hits += 1
            return
        node = state.node
        if self._cache_root_eligible(node, ""):
            deferred = bool(successors)
            if deferred and any(
                segment.signature.boundary_id == node.node_id
                for segment in self._segment_recordings
            ):
                successors.append((state, ""))
                return
            for signature, key in self._region_keys(state):
                if deferred and signature.boundary_id is None:
                    if key in self.summary_cache:
                        break
                    continue
                cached = self.summary_cache.peek(key)
                if cached is not None:
                    self.statistics.summary_cache_hits += 1
                    if self._segment_recordings:
                        self._capture_boundary_crossings(state)
                    self._replay(state, signature, cached, summary, successors)
                    return
        successors.append((state, ""))

    def _abort_open_recordings(self) -> None:
        """Mark every open recording incomplete (no store when it closes).

        Used when the deadline budget degrades a decision: the subtree was
        explored conservatively, so storing any enclosing recording would
        poison the cache with an over-approximate summary.
        """
        for recording in self._recordings:
            recording.aborted = True

    def _deadline_degraded(self) -> bool:
        """True once the run's deadline budget has expired.

        Degradation is wall-clock dependent: what a degraded run explored
        (extra branch sides, unpruned lookahead targets) is not a function
        of the cache key, so no summary recorded after exhaustion may be
        stored -- a later, un-degraded run would replay it as ground truth.
        Reading the clock here, not only the flag a refused query sets,
        covers the engine's own degraded decisions, purely lookahead-level
        degradation, and a run whose queries the context's box answered
        without ever reaching the complete solver: whether a run past its
        deadline is flagged does not depend on which queries it made.
        """
        deadline = self.solver.deadline
        return deadline is not None and deadline.expired()

    def _finalize_recording(self, recording: _Recording, summary: MethodSummary) -> None:
        """Close the innermost recording and store its summary."""
        top = self._recordings.pop()
        assert top is recording, "recordings must close in LIFO order"
        captures = recording.captures
        if captures is not None:
            self._segment_recordings.pop()
        if recording.aborted or self._deadline_degraded():
            return
        signature = recording.signature
        root = (recording.environment, recording.prefix_len, recording.trace_len, signature.index)
        strategy_after = self.strategy.region_snapshot(signature)
        if captures is None:
            paths = tuple(summary.records[recording.start:])
            cached = SubtreeSummary.from_paths(
                self.procedure.name, signature.digest, paths, *root, strategy_after
            )
        else:
            # Derived now: the captures are the only references to the
            # boundary states' path conditions and environments, which a
            # stored source would keep alive for as long as the entry lives.
            cached = SubtreeSummary(
                self.procedure.name, signature.digest, replay_records(captures, *root),
                strategy_after,
            )
        self.summary_cache.store(recording.key, cached)
        self.statistics.summary_cache_stores += 1

    def _successors(self, state: SymbolicState) -> List[Tuple[SymbolicState, str]]:
        node = state.node
        kind = node.kind
        targets = self._step_targets[node.node_id]
        if kind is _BRANCH:
            return self._branch_successors(state, node, *targets)
        if not targets:
            return []
        target = targets[0]
        if kind is _ASSIGN:
            value = self._evaluate(state, node)
            return [(state.with_assignment(target, node.target, value), "")]
        if kind is _CALL:
            return [(self._enter_call(state, node, target), "")]
        if kind is _CALL_RETURN:
            return [(self._leave_call(state, node, target), "")]
        return [(state.with_node(target), "")]

    def _evaluate(self, state: SymbolicState, node: CFGNode):
        """The value of ``node``'s expressions under ``state``'s environment.

        An ``ASSIGN`` node's value is its right-hand side, a ``BRANCH``
        node's its condition and a ``CALL`` node's the tuple of its
        arguments.  It is memoised for the run on the terms of
        ``node.used_variables()``: a state's environment changes only at
        writes, so one node sees the same inputs again and again.  The key
        reads each term straight from the name-sorted bindings by
        bisection, so a hit builds no
        :meth:`~repro.symexec.state.SymbolicState.env_map`.  A term is
        keyed by its ``term_id``, which no other term ever gets, so a key
        keeps no term alive.  Terms are interned, so a hit returns the very
        objects the lowered closures would build.  An unbound name keys as
        None; its closure raises, and an evaluation that raises is not
        stored.
        """
        environment = state.environment
        size = len(environment)
        key = (node.node_id,)
        for name in node.used_variables():
            index = bisect_left(environment, (name,))
            if index < size and environment[index][0] == name:
                key += (environment[index][1].term_id,)
            else:
                key += (None,)
        value = self._values.get(key)
        if value is None:
            env = state.env_map()
            kind = node.kind
            if kind is _ASSIGN:
                value = node.lowered_expr(env)
            elif kind is _BRANCH:
                value = node.lowered_condition(env)
            else:
                value = tuple([lowered(env) for lowered in node.lowered_args])
            self._values[key] = value
        return value

    def _enter_call(
        self, state: SymbolicState, node: CFGNode, target: CFGNode
    ) -> SymbolicState:
        """Execute a ``CALL`` node: evaluate args, push a frame, switch scope.

        The callee's environment contains the current global values plus the
        formals bound to the evaluated arguments -- nothing of the caller's
        locals leaks in.  The frame saves every caller binding that is not a
        global, so the matching ``CALL_RETURN`` restores the caller's scope
        exactly.
        """
        callee_env = merge_bindings(
            self._global_bindings(state.environment),
            zip(node.call_params, self._evaluate(state, node)),
        )
        frame = CallFrame(callee=node.callee, saved=self._saved_bindings(state.environment))
        return state.with_call(target, callee_env, frame)

    def _global_bindings(self, environment: Bindings) -> Bindings:
        """The global bindings of ``environment``, pair objects kept."""
        globals_ = self._global_names
        return tuple([binding for binding in environment if binding[0] in globals_])

    def _saved_bindings(self, environment: Bindings) -> Bindings:
        """What a call sets aside: every non-global binding, pair objects kept."""
        globals_ = self._global_names
        return tuple([binding for binding in environment if binding[0] not in globals_])

    def _leave_call(
        self, state: SymbolicState, node: CFGNode, target: CFGNode
    ) -> SymbolicState:
        """Execute a ``CALL_RETURN`` node: pop the frame, bind the result."""
        if not state.frames:
            raise RuntimeError(
                f"CALL_RETURN at {node.name} with an empty call stack "
                f"(corrupt entry state?)"
            )
        frame = state.frames[-1]
        # The globals and the saved bindings are name-disjoint (the call
        # split the caller's scope on ``_global_names``), so one sort by name
        # merges them.
        restored = [binding for binding in frame.saved if binding[1] is not None]
        caller_env = tuple(
            sorted([*self._global_bindings(state.environment), *restored], key=itemgetter(0))
        )
        if node.target is not None:
            result = bound_term(state.environment, RETURN_VARIABLE)
            if result is None:
                raise RuntimeError(
                    f"Procedure {node.callee!r} returned no value for "
                    f"{node.target!r} (line {node.line})"
                )
            caller_env = replace_binding(caller_env, (node.target, result))
        return state.with_return(target, caller_env)

    def _sync_context(self, state: SymbolicState) -> None:
        """Align the incremental context with ``state``'s path condition.

        The DFS visits states in stack order, so the context usually shares
        all but the last constraint with the previous query: backtracking is a
        handful of pops, descending pushes only the delta
        (:meth:`~repro.solver.context.SolverContext.sync_to`).
        """
        self.context.sync_to(state.path_condition.constraints)

    def _branch_successors(
        self, state: SymbolicState, node: CFGNode, true_target: CFGNode, false_target: CFGNode
    ) -> List[Tuple[SymbolicState, str]]:
        condition = self._evaluate(state, node)
        if isinstance(condition, BoolConst):
            # Concrete branch: follow the only possible side without touching
            # the path condition or the solver.
            target = true_target if condition.value else false_target
            return [(state.with_node(target), "true" if condition.value else "false")]

        try:
            self._sync_context(state)
        except BudgetExhausted:
            self._degrade_decision()
            return [
                (state.with_constraint(true_target, condition), "true"),
                (state.with_constraint(false_target, negate(condition)), "false"),
            ]
        negation = self._negations.get(condition.term_id)
        if negation is None:
            negation = self._negations[condition.term_id] = negate(condition)
        successors: List[Tuple[SymbolicState, str]] = []
        for branch_condition, target, label in (
            (condition, true_target, "true"),
            (negation, false_target, "false"),
        ):
            try:
                feasible = self.context.assume_is_satisfiable(branch_condition)
            except BudgetExhausted:
                feasible = self._degrade_decision()
            if feasible:
                successors.append((state.with_constraint(target, branch_condition), label))
            else:
                self.statistics.infeasible_branches += 1
        return successors

    def _degrade_decision(self) -> bool:
        """Conservative fallback for a feasibility query the budget refused.

        The undecided branch side is treated as feasible: the run keeps
        terminating (every path still completes or hits the depth bound) and
        keeps covering everything a complete run would -- it may merely
        explore infeasible paths it cannot afford to rule out.  The run is
        flagged via ``degraded_decisions`` / ``completeness``.  The
        context's box still answers for free after exhaustion: interval
        propagation, and verdicts on undecided atoms that are each ``<=``
        or ``!=`` and share no variable.  Only verdicts needing the
        complete solver degrade -- an ``==`` atom over several variables,
        or undecided atoms that share a variable.
        """
        self.statistics.degraded_decisions += 1
        # A conservatively-explored subtree must never be recorded: a later,
        # un-degraded run would replay the over-approximate summary as
        # ground truth.
        self._abort_open_recordings()
        return True


def symbolic_execute(
    program,
    procedure_name: Optional[str] = None,
    depth_bound: Optional[int] = None,
    solver: Optional[ConstraintSolver] = None,
    build_tree: bool = False,
    tracked_variables: Optional[Sequence[str]] = None,
    summary_cache: Optional[SummaryCache] = None,
    deadline: Optional[DeadlineBudget] = None,
) -> ExecutionResult:
    """Run full symbolic execution on one procedure and return the result.

    ``deadline`` attaches a run-level :class:`DeadlineBudget` to the run's
    solver: once exhausted, feasibility queries degrade to conservative
    answers and the result's ``statistics.completeness`` reads
    ``"degraded"``.
    """
    executor = SymbolicExecutor(
        program,
        procedure_name=procedure_name,
        depth_bound=depth_bound,
        solver=solver,
        build_tree=build_tree,
        tracked_variables=tracked_variables,
        summary_cache=summary_cache,
    )
    if deadline is not None:
        executor.solver.deadline = deadline
    return executor.run()
