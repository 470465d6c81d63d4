"""Feasibility-aware reachability lookahead for the directed search.

``AffectedLocIsReachable`` (paper Fig. 6) asks whether an unexplored affected
location can still be covered from the current state.  Pure CFG reachability
over-approximates that badly: a target can be statically reachable while
every CFG path to it is infeasible under the current path condition (in the
§2.2 example, ``AltPress = 0`` is guarded by ``PedalCmd == 2``, which the
``PedalPos != 1`` branch can never satisfy).  Exploring such states burns
solver time and reports path conditions for behaviours the affected sets do
not actually cover.

:class:`FeasibleReachability` therefore walks the CFG forward from the
candidate state, carrying the symbolic environment and pushing each branch
guard onto an incremental :class:`~repro.solver.context.SolverContext`; a
target counts as reachable only if some guard-consistent path reaches it.

Two layers of reuse keep the lookahead off the quadratic path it used to be
on:

* **one persistent context per instance** -- instead of rebuilding a context
  from the empty stack for every query (which re-propagated the whole
  path-condition prefix), the context is synced to the query state by
  longest-common-prefix ``pop_to``/``push``, exactly like the executor's own
  context; consecutive sibling probes share all but one constraint;
* **walk memoization** -- the walk's answer is a deterministic function of
  the suffix region's *content* (its :mod:`~repro.cfg.region_hash` digest),
  the symbolic values of the region's *decision variables* (the entry values
  that can flow into some branch condition -- pass-through data the region
  never branches on is deliberately excluded), the slice of the path
  condition that can influence those values, and the probed target set (in
  canonical region coordinates).  Results are cached under exactly that
  key, both for whole queries and -- crucially -- at every branch node the
  walk descends into, so sibling probes that rejoin at a previously walked
  node stop re-walking (and re-querying) the shared suffix.  Keying by
  content digest makes invalidation automatic: any IR change inside the
  region changes the digest and stale entries simply never match again.

The walk itself runs on an explicit stack (a deep CFG used to blow the
interpreter recursion limit, which was silently swallowed as "all targets
reachable"), and every way it can degrade -- loop back edges, budget
exhaustion, evaluation or solver failures -- is counted in
:class:`LookaheadStatistics` so degradation is visible.

The analysis is *conservative*: on loops, evaluation failures, non-linear
guards or budget exhaustion it falls back to static reachability (explore
rather than prune), which keeps the paper's coverage guarantee intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cfg.builder import RETURN_VARIABLE
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.ir import FALSE_EDGE, TRUE_EDGE, CFGNode, NodeKind
from repro.solver.context import SolverContext
from repro.solver.core import BudgetExhausted, ConstraintSolver, SolverError
from repro.solver.terms import (
    BoolConst,
    EvaluationError,
    Term,
    negate,
    term_symbols,
)
from repro.symexec.evaluator import UndefinedVariableError
from repro.symexec.state import SymbolicState

#: Upper bound on CFG-node expansions per query before giving up and
#: answering conservatively.
DEFAULT_BUDGET = 4096

#: Memo value recording that the walk could not stay exact for this key (the
#: query answered "all targets coverable"); deterministic per key, so it is
#: as cacheable as an exact answer.
_INEXACT = object()

#: Reserved (non-string) key under which a walk keeps its call-frame stack
#: inside the environment dict.  The evaluator only ever looks up string
#: variable names, so the entry is invisible to expression evaluation, and
#: it forks together with the environment at branch points.
_WALK_FRAMES = ("@walk-frames",)


@dataclass
class LookaheadStatistics:
    """The lookahead's own accounting bucket.

    The lookahead shares the executor's solver (so its caches and contexts
    accumulate), which used to fold its traffic into
    ``ExecutionStatistics.solver_queries``.  These counters carve that
    traffic out: the engine subtracts them so the executor-facing numbers
    measure only the executor's own branch checks.

    ``walk_memo_hits``/``walk_memo_misses`` account the memoized walks,
    ``prefix_syncs`` counts context alignments (each reusing the
    longest common prefix instead of rebuilding), and the ``*_bailouts``
    counters make every source of conservative degradation visible:
    a budget exhaustion, a loop back edge, an evaluation failure or a solver
    error each answer "all targets coverable" instead of a precise set.
    """

    calls: int = 0
    solver_queries: int = 0
    solver_cache_hits: int = 0
    incremental_hits: int = 0
    #: Prefix frames the lookahead's context syncs and probes retained on
    #: the shared solver's ``prefix_reuses`` counter (metered so the engine
    #: can carve lookahead traffic out of the executor-facing number).
    solver_prefix_reuses: int = 0
    walk_memo_hits: int = 0
    walk_memo_misses: int = 0
    prefix_syncs: int = 0
    budget_bailouts: int = 0
    loop_bailouts: int = 0
    eval_bailouts: int = 0
    solver_bailouts: int = 0

    def snapshot(self) -> Tuple[int, int, int, int, int, int, int]:
        """The engine-facing counters as a tuple (for cheap start/end deltas)."""
        return (
            self.calls,
            self.solver_queries,
            self.solver_cache_hits,
            self.incremental_hits,
            self.solver_prefix_reuses,
            self.walk_memo_hits,
            self.prefix_syncs,
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "calls": self.calls,
            "solver_queries": self.solver_queries,
            "solver_cache_hits": self.solver_cache_hits,
            "incremental_hits": self.incremental_hits,
            "solver_prefix_reuses": self.solver_prefix_reuses,
            "walk_memo_hits": self.walk_memo_hits,
            "walk_memo_misses": self.walk_memo_misses,
            "prefix_syncs": self.prefix_syncs,
            "budget_bailouts": self.budget_bailouts,
            "loop_bailouts": self.loop_bailouts,
            "eval_bailouts": self.eval_bailouts,
            "solver_bailouts": self.solver_bailouts,
        }


class FeasibleReachability:
    """Solver-backed lookahead deciding which targets a state can still cover.

    Args:
        cfg: the CFG being explored; its region hashes (``cfg.regions``)
            key the walk memo and are shared with the engine's summary cache.
        solver: shared complete solver (fresh when omitted).
        budget: CFG-node expansions per query before answering conservatively.
        memoize: cache walk results keyed by (region digest, relevant
            path-condition slice, environment fingerprint, canonical target
            set) and keep one persistent prefix-synced context.  ``False``
            reproduces the pre-memoization query shape -- a fresh context
            rebuilt from the empty stack per query, the state's feasibility
            re-proven at the root, no walk reuse -- and exists purely as the
            measurable baseline for the differential tests and
            ``benchmarks/bench_lookahead.py``.
    """

    def __init__(
        self,
        cfg: ControlFlowGraph,
        solver: Optional[ConstraintSolver] = None,
        budget: int = DEFAULT_BUDGET,
        memoize: bool = True,
    ):
        self.cfg = cfg
        self.solver = solver or ConstraintSolver()
        self.budget = budget
        self.memoize = memoize
        self.statistics = LookaheadStatistics()
        #: One persistent context, synced per query by longest common prefix.
        self.context = SolverContext(self.solver)
        #: Memo key -> frozenset of canonical region indices (the coverable
        #: targets) or ``_INEXACT``.  The key holds its terms, so they stay
        #: interned while the entry lives and a later structurally equal
        #: probe rebuilds the same key.
        self._memo: Dict[tuple, object] = {}

    def reachable_targets(
        self,
        state: SymbolicState,
        target_ids: Iterable[int],
        assume_feasible: bool = False,
    ) -> Set[int]:
        """The subset of ``target_ids`` coverable on a feasible path from ``state``.

        ``target_ids`` should already be filtered to statically reachable
        nodes; whatever cannot be decided exactly (loops, budget, evaluation
        errors) is returned as reachable, never silently dropped.

        ``assume_feasible`` skips the query-state satisfiability pre-check.
        The directed strategy sets it: the engine only ever hands
        ``should_explore`` states whose path condition passed a feasibility
        check when the constraint was appended, so re-proving it here was one
        redundant solver query per lookahead call.
        """
        targets = set(target_ids)
        if not targets:
            return set()
        solver_stats = self.solver.statistics
        before = (
            solver_stats.queries,
            solver_stats.cache_hits,
            solver_stats.incremental_hits,
            solver_stats.prefix_reuses,
        )
        self.statistics.calls += 1
        try:
            return self._reachable_targets(state, targets, assume_feasible)
        except BudgetExhausted:
            # Deadline-budget degradation: a query the budget refused is
            # answered conservatively -- every probed target counts as
            # reachable, so nothing is ever pruned on an unproven verdict.
            # (Most budget refusals inside the walk are already converted to
            # the same answer by its SolverError bailout; this catches the
            # remaining paths, e.g. the feasibility pre-check.)
            self.statistics.solver_bailouts += 1
            return set(targets)
        finally:
            self.statistics.solver_queries += solver_stats.queries - before[0]
            self.statistics.solver_cache_hits += solver_stats.cache_hits - before[1]
            self.statistics.incremental_hits += solver_stats.incremental_hits - before[2]
            self.statistics.solver_prefix_reuses += solver_stats.prefix_reuses - before[3]

    def _reachable_targets(
        self, state: SymbolicState, targets: Set[int], assume_feasible: bool
    ) -> Set[int]:
        if not self.memoize:
            return self._reachable_targets_rebuild(state, targets)
        synced = False
        if not assume_feasible:
            # The memo's keys and hit values presuppose a feasible prefix
            # (the relevant-slice argument collapses otherwise), so an
            # un-vouched state must be checked *before* the memo is
            # consulted -- an infeasible state whose unsatisfiability lives
            # in decision-irrelevant constraints would otherwise match a
            # feasible sibling's entry.
            self.statistics.prefix_syncs += 1
            self.context.sync_to(state.path_condition.constraints)
            synced = True
            if len(self.context) and not self.context.is_satisfiable():
                # The state itself is infeasible; nothing ahead can be
                # covered.  (Not memoized: infeasible states never recur.)
                return set()
        memo_key = self._walk_key(
            state.node, state.env_map(), state.path_condition.constraints, targets
        )
        cached = self._memo.get(memo_key)
        if cached is not None:
            self.statistics.walk_memo_hits += 1
            if cached is _INEXACT:
                return set(targets)
            signature = self.cfg.regions.signature(state.node)
            return {signature.nodes[position].node_id for position in cached}
        self.statistics.walk_memo_misses += 1

        if not synced:
            self.statistics.prefix_syncs += 1
            self.context.sync_to(state.path_condition.constraints)

        found: Set[int] = set()
        walk = _Walk(self, self.context, targets, found, self.statistics)
        base_depth = len(self.context)
        try:
            exact = walk.run(state.node, state.env_dict())
        finally:
            # Guards pushed by an interrupted walk (bailout or early success)
            # are unwound here, leaving the context at the state's prefix.
            self.context.pop_to(base_depth)

        signature = self.cfg.regions.signature(state.node)
        self._memo[memo_key] = (
            frozenset(signature.index[node_id] for node_id in found) if exact else _INEXACT
        )
        if not exact:
            # Conservative completion: the caller guarantees every target is
            # statically reachable, so whatever the walk could not decide
            # exactly counts as coverable.
            return set(targets)
        return found

    def _reachable_targets_rebuild(self, state: SymbolicState, targets: Set[int]) -> Set[int]:
        """The pre-memoization query shape, kept as the measurable baseline.

        A fresh context is rebuilt from the empty stack (re-propagating the
        entire path-condition prefix), the state's feasibility is re-proven
        at the root, and nothing is reused between queries -- exactly what
        every query cost before this layer existed.  Observably equivalent
        to the memoized path; the differential tests pin that.
        """
        context = SolverContext(self.solver)
        for constraint in state.path_condition:
            context.push(constraint)
        if len(context) and not context.is_satisfiable():
            # The state itself is infeasible; nothing ahead can be covered.
            return set()
        found: Set[int] = set()
        walk = _Walk(self, context, targets, found, self.statistics)
        exact = walk.run(state.node, state.env_dict())
        return found if exact else set(targets)

    def _walk_key(
        self,
        node: CFGNode,
        env,
        constraints: Tuple[Term, ...],
        targets: Set[int],
    ) -> tuple:
        """The walk-from-``node``'s full functional input, in region-canonical coordinates.

        The answer of a walk (which of the still-missing targets it can
        cover) is determined by (a) the suffix region's content, (b) the
        symbolic values of the region's decision variables (every branch
        condition the walk will ever evaluate is built from them -- a value
        the region only copies around cannot steer the walk), (c) the
        satisfiability of the already-established constraints conjoined with
        guards over those values -- which, for a feasible prefix, depends
        only on the constraints *transitively sharing symbols* with them --
        and (d) the probed targets that fall inside the region (ones
        outside can never be found by the walk and are excluded from key
        and value alike).  Hashing (a) via the region digest makes the memo
        content-addressed: it survives node renumbering and goes stale
        automatically when the region's IR changes.

        Used both for whole queries (``constraints`` is the state's path
        condition) and for interior branch probes (``constraints`` is the
        context stack: path condition plus the guards pushed so far).

        The key holds the decision variables' terms (``None`` when unbound)
        and the relevant constraints themselves; terms are hash-consed, so
        equal inputs build an equal key, and the key keeps them interned.
        """
        signature = self.cfg.regions.signature(node)
        index = signature.index
        canonical_targets = frozenset(
            index[target_id] for target_id in targets if target_id in index
        )
        fingerprint = []
        decision_symbols: Set[str] = set()
        for name in signature.decision_vars:
            term = env.get(name)
            fingerprint.append((name, term))
            if term is not None:
                decision_symbols |= term_symbols(term)
        relevant = _relevant_constraints(constraints, decision_symbols)
        return (
            signature.digest,
            tuple(fingerprint),
            frozenset(relevant),
            canonical_targets,
        )


def _relevant_constraints(
    constraints: Tuple[Term, ...], seed_symbols: Set[str]
) -> List[Term]:
    """The prefix constraints transitively connected to ``seed_symbols``.

    For a satisfiable prefix P partitioned into a slice sharing symbols
    (transitively) with the walk's guards and an independent remainder,
    ``sat(P and G) == sat(slice and G)``: the remainder is satisfiable on
    its own and mentions none of the slice's or the guards' symbols.  Only
    the slice therefore belongs in the memo key -- which is exactly what
    lets probes whose prefixes differ in irrelevant early branches share one
    walk.
    """
    if not seed_symbols:
        return []
    pending = [(constraint, term_symbols(constraint)) for constraint in constraints]
    symbols = set(seed_symbols)
    relevant: List[Term] = []
    changed = True
    while changed and pending:
        changed = False
        remaining = []
        for constraint, constraint_symbols in pending:
            if constraint_symbols & symbols:
                relevant.append(constraint)
                symbols |= constraint_symbols
                changed = True
            else:
                remaining.append((constraint, constraint_symbols))
        pending = remaining
    return relevant


class _Walk:
    """One lookahead traversal: explicit-stack DFS with guard pushes.

    The walk used to recurse per branch arm, so a CFG deeper than the
    interpreter stack raised ``RecursionError`` -- silently treated as "all
    targets reachable".  The explicit work stack makes depth a non-issue;
    the only remaining degradation sources are the step budget, loop back
    edges and evaluation/solver failures, each counted in the owner's
    statistics.
    """

    def __init__(
        self,
        owner: FeasibleReachability,
        context: SolverContext,
        targets: Set[int],
        found: Set[int],
        statistics: LookaheadStatistics,
    ):
        self.owner = owner
        self.context = context
        self.targets = targets
        self.found = found
        self.statistics = statistics
        self.steps = 0
        #: node id -> number of open visits on the current DFS path (the
        #: explicit-stack replacement for the per-branch ``on_path`` sets).
        self._on_path: Dict[int, int] = {}

    def _walk_call(self, node: CFGNode, env: Dict[str, Term]) -> Dict[str, Term]:
        """Mirror the engine's CALL scope switch inside the walk.

        Arguments are evaluated in the caller's view (failures poison the
        formal), the caller's bindings of the callee's scope names are saved
        on the walk's own frame stack, and the formals are rebound.  Caller
        locals outside the callee's scope stay in the dict -- a validated
        callee never reads them, so their walk values remain exact across
        the call.
        """
        values = []
        for lowered in node.lowered_args:
            try:
                values.append(lowered(env))
            except (UndefinedVariableError, EvaluationError):
                values.append(None)
        env = dict(env)
        saved = {name: env.get(name) for name in node.scope_names}
        env[_WALK_FRAMES] = env.get(_WALK_FRAMES, ()) + (saved,)
        for name in node.scope_names:
            env.pop(name, None)
        for param, value in zip(node.call_params, values):
            if value is not None:
                env[param] = value
        return env

    def _walk_call_return(self, node: CFGNode, env: Dict[str, Term]) -> Dict[str, Term]:
        """Mirror the engine's CALL_RETURN pop inside the walk.

        With a matching walk frame the caller's shadowed bindings are
        restored exactly; a walk that *started* inside the callee has no
        frame to pop, so the shadowed names are poisoned instead (the
        conservative direction -- an unknown value can never justify
        pruning).
        """
        env = dict(env)
        result = env.get(RETURN_VARIABLE)
        frames = env.get(_WALK_FRAMES, ())
        if frames:
            saved = frames[-1]
            env[_WALK_FRAMES] = frames[:-1]
            for name, value in saved.items():
                if value is None:
                    env.pop(name, None)
                else:
                    env[name] = value
        else:
            for name in node.scope_names:
                env.pop(name, None)
        if node.target is not None:
            if result is not None:
                env[node.target] = result
            else:
                env.pop(node.target, None)
        return env

    def run(self, node: CFGNode, env: Dict[str, Term]) -> bool:
        """Walk from ``node``; returns False when forced to bail out.

        On a bailout or early success the context may still hold pushed
        guards -- the owner restores it with ``pop_to``.
        """
        owner = self.owner
        cfg = owner.cfg
        work: List[tuple] = [("visit", node, env)]
        while work:
            item = work.pop()
            kind = item[0]
            if kind == "pop":
                self.context.pop()
                continue
            if kind == "leave":
                for node_id in item[1]:
                    self._on_path[node_id] -= 1
                continue
            if kind == "store":
                # Both arms of a memo-probed branch finished: the targets
                # found since the probe are exactly what a walk from that
                # branch (under the probed key) can cover.
                _, memo_key, store_node, found_at_entry = item
                signature = owner.cfg.regions.signature(store_node)
                owner._memo[memo_key] = frozenset(
                    signature.index[node_id] for node_id in self.found - found_at_entry
                )
                continue
            if kind == "guard":
                _, guard, target, guard_env = item
                if self.found >= self.targets:
                    continue
                self.context.push(guard)
                try:
                    feasible = self.context.is_satisfiable()
                except SolverError:
                    self.statistics.solver_bailouts += 1
                    return False
                if not feasible:
                    self.context.pop()
                    continue
                work.append(("pop",))
                work.append(("visit", target, guard_env))
                continue

            # kind == "visit": follow straight-line flow inline, deferring
            # only branch arms (and their guard pushes) to the work stack.
            _, node, env = item
            entered: Optional[List[int]] = []
            while True:
                if self.found >= self.targets:
                    break
                self.steps += 1
                if self.steps > self.owner.budget:
                    self.statistics.budget_bailouts += 1
                    return False
                node_id = node.node_id
                if node_id in self.targets:
                    self.found.add(node_id)
                    if self.found >= self.targets:
                        break
                if node.kind in (NodeKind.END, NodeKind.ERROR):
                    break
                if self._on_path.get(node_id, 0) > 0:
                    # Back edge: deciding coverage across further loop
                    # iterations exactly would need bounded unrolling; stay
                    # conservative.
                    self.statistics.loop_bailouts += 1
                    return False
                self._on_path[node_id] = self._on_path.get(node_id, 0) + 1
                entered.append(node_id)
                if node.kind is NodeKind.BRANCH:
                    try:
                        condition = node.lowered_condition(env)
                    except (UndefinedVariableError, EvaluationError):
                        self.statistics.eval_bailouts += 1
                        return False
                    true_target = cfg.successor_on(node, TRUE_EDGE)
                    false_target = cfg.successor_on(node, FALSE_EDGE)
                    if isinstance(condition, BoolConst):
                        # Concrete branch: follow the only possible side.
                        node = true_target if condition.value else false_target
                        continue
                    # Interior memoization is keyed on the region's decision
                    # variables only; a walk that entered a call carries
                    # frame-saved bindings the key cannot see, so such
                    # branches are walked without probing or storing.
                    if owner.memoize and not env.get(_WALK_FRAMES):
                        remaining = self.targets - self.found
                        memo_key = owner._walk_key(
                            node, env, self.context.constraints(), remaining
                        )
                        cached = owner._memo.get(memo_key)
                        if cached is not None and cached is not _INEXACT:
                            # A sibling probe already walked an identical
                            # subtree under an equivalent prefix slice:
                            # replay its finds and skip both arms.
                            self.statistics.walk_memo_hits += 1
                            signature = owner.cfg.regions.signature(node)
                            self.found.update(
                                signature.nodes[position].node_id for position in cached
                            )
                            break
                        # An _INEXACT entry (stored by a budget-limited root
                        # walk under the same key) is not replayed here: the
                        # budget is per-query, so this walk may well finish
                        # the subtree exactly -- and its store then upgrades
                        # the entry.
                        self.statistics.walk_memo_misses += 1
                        # The store marker sits below the leave marker and
                        # both arms, so it fires once the subtree completes;
                        # bailouts abandon the whole stack, so no partial
                        # subtree is ever recorded.
                        work.append(("store", memo_key, node, set(self.found)))
                    # The leave marker sits below both arms so the path marks
                    # stay in place until the second arm finishes.
                    work.append(("leave", entered))
                    work.append(("guard", negate(condition), false_target, env))
                    work.append(("guard", condition, true_target, env))
                    entered = None
                    break
                if node.kind is NodeKind.ASSIGN:
                    try:
                        value = node.lowered_expr(env)
                    except (UndefinedVariableError, EvaluationError):
                        # The write's value is unknowable, but that only
                        # matters if a later condition actually reads it:
                        # poison the variable and bail there instead of
                        # aborting walks over pass-through data-flow.
                        env = dict(env)
                        env.pop(node.target, None)
                        value = None
                    if value is not None:
                        env = dict(env)
                        env[node.target] = value
                elif node.kind is NodeKind.CALL:
                    env = self._walk_call(node, env)
                elif node.kind is NodeKind.CALL_RETURN:
                    env = self._walk_call_return(node, env)
                successors = cfg.successors(node)
                if not successors:
                    break
                if len(successors) > 1:
                    work.append(("leave", entered))
                    work.append(("visit", successors[0], env))
                    for successor in reversed(successors[1:]):
                        work.append(("visit", successor, env))
                    entered = None
                    break
                node = successors[0]
            if entered:
                # The straight-line run ended at a terminal (or with all
                # targets found): unwind its path marks immediately.
                for node_id in entered:
                    self._on_path[node_id] -= 1
            # Keep draining even when all targets are found: pending pop,
            # leave and store markers still need to fire (the guard handler
            # skips further descents, so the drain is O(stack)).
        return True
