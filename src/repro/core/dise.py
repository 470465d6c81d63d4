"""The DiSE pipeline: diff -> affected locations -> directed symbolic execution.

``run_dise`` is the top-level entry point of the reproduction.  It takes the
two program versions (only their source, exactly as the paper requires -- no
analysis artefacts from previous runs), computes the affected node sets of
the modified procedure and then symbolically executes the modified version
under the directed strategy, returning the affected path conditions plus all
the metrics reported in Table 2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.cfg.graph import ControlFlowGraph
from repro.core.affected import AffectedLocationAnalysis, AffectedSets
from repro.core.directed import DirectedExplorationStrategy
from repro.core.removed import RemovedNodeEffects, compute_removed_node_effects
from repro.diff.ast_diff import diff_program
from repro.diff.diff_map import DiffMap, build_program_diff_map
from repro.lang.ast_nodes import Procedure, Program
from repro.solver.core import ConstraintSolver
from repro.symexec.engine import (
    ExecutionResult,
    ExecutionStatistics,
    SymbolicExecutor,
    symbolic_execute,
)
from repro.symexec.state import PathCondition
from repro.symexec.summary import MethodSummary
from repro.symexec.summary_cache import SummaryCache


@dataclass
class DiSEResult:
    """Everything produced by one DiSE run."""

    procedure_name: str
    diff_map: DiffMap
    removed_effects: RemovedNodeEffects
    affected: AffectedSets
    strategy: DirectedExplorationStrategy
    execution: ExecutionResult
    static_analysis_seconds: float
    total_seconds: float
    #: Entries dropped from the shared summary cache because their region
    #: stayed absent from the incoming CFGs beyond the cache's miss
    #: tolerance (0 when no cache was supplied).
    summaries_invalidated: int = 0

    @property
    def path_conditions(self) -> List[PathCondition]:
        """The affected path conditions generated by the directed search."""
        return self.execution.path_conditions

    @property
    def changed_node_count(self) -> int:
        """The "CFG Nodes Changed" column of Table 2."""
        return self.diff_map.count_changed_nodes()

    @property
    def affected_node_count(self) -> int:
        """The "CFG Nodes Affected" column of Table 2."""
        return self.affected.count()

    @property
    def states_explored(self) -> int:
        return self.execution.statistics.states_explored

    def metrics(self) -> Dict[str, Union[int, float]]:
        """A flat scalar metric dictionary used by the benchmark tables.

        Every value is an ``int`` or ``float`` -- consumers can
        column-align it or diff it numerically without special-casing
        nested shapes.
        """
        statistics = self.execution.statistics
        return {
            "changed_nodes": self.changed_node_count,
            "affected_nodes": self.affected_node_count,
            "time_seconds": self.total_seconds,
            "static_analysis_seconds": self.static_analysis_seconds,
            "states_explored": self.states_explored,
            "path_conditions": len(self.path_conditions),
            "pruned_paths": statistics.pruned_by_strategy,
            "solver_queries": statistics.solver_queries,
            "lookahead_solver_queries": statistics.lookahead_solver_queries,
            "lookahead_walk_memo_hits": statistics.lookahead_walk_memo_hits,
            "summary_cache_hits": statistics.summary_cache_hits,
            "summary_cache_misses": statistics.summary_cache_misses,
            "summary_cache_stores": statistics.summary_cache_stores,
            "summaries_invalidated": self.summaries_invalidated,
            "replayed_paths": statistics.replayed_paths,
            "degraded_decisions": statistics.degraded_decisions,
            "deadline_exhausted": statistics.deadline_exhausted,
            "strategy_token_misses": statistics.strategy_token_misses,
        }


class DiSE:
    """Directed Incremental Symbolic Execution for a pair of program versions.

    Args:
        base_program: the base (old) version of the program.
        modified_program: the modified (new) version of the program.
        procedure_name: the procedure under analysis (defaults to the first
            procedure of the modified program).
        solver: optional shared constraint solver.
        depth_bound: optional bound on branch decisions per path.
        record_trace: keep a Table-1 style trace of the explored/unexplored
            sets (``strategy.trace_rows``) and the Fig. 5(b) trace of the
            affected-set fixed point (``affected.trace``, empty otherwise).
        apply_rule4: apply the Fig. 4 reaching-definitions rule (ablation switch).
        forward_writes: apply the forward data-flow closure rule (see
            :class:`~repro.core.affected.AffectedLocationAnalysis`); set to
            False for the strict published rule set.
        enable_reset: perform ``ResetUnExploredSet`` during the search (ablation).
        enable_pruning: prune paths that cannot reach unexplored affected nodes
            (ablation switch; disabling degenerates to full symbolic execution).
        complete_covered_paths: extension switch -- drive paths that already
            covered affected nodes to completion even when all remaining
            choices are pruned (see
            :class:`~repro.core.directed.DirectedExplorationStrategy`).
        lookahead_memoize: memoize the feasibility lookahead's CFG walks
            (default; disable only to measure the unmemoized baseline).
        summary_cache: optional cross-version subtree summary cache shared
            between runs of a version history (see
            :mod:`repro.symexec.summary_cache`); subtrees whose region
            content, entry environment and directed-search context match a
            previous version's execution are replayed instead of re-executed,
            and entries obsoleted by this version's CFG are invalidated
            before the run.
        deadline: optional run-level
            :class:`~repro.solver.core.DeadlineBudget`; once exhausted,
            feasibility answers degrade conservatively and
            ``result.execution.statistics.completeness`` reads
            ``"degraded"``.
    """

    def __init__(
        self,
        base_program,
        modified_program,
        procedure_name: Optional[str] = None,
        solver: Optional[ConstraintSolver] = None,
        depth_bound: Optional[int] = None,
        record_trace: bool = False,
        apply_rule4: bool = True,
        forward_writes: bool = True,
        enable_reset: bool = True,
        enable_pruning: bool = True,
        complete_covered_paths: bool = False,
        summary_cache: Optional[SummaryCache] = None,
        lookahead_memoize: bool = True,
        deadline=None,
    ):
        self.base_program = _as_program(base_program)
        self.modified_program = _as_program(modified_program)
        if procedure_name is None:
            if not self.modified_program.procedures:
                raise ValueError("Modified program has no procedures")
            procedure_name = self.modified_program.procedures[0].name
        self.procedure_name = procedure_name
        # An explicit entry point is honoured end-to-end; an unknown name
        # raises here (KeyError) instead of silently analysing procedures[0].
        self.base_procedure = self.base_program.procedure(procedure_name)
        self.modified_procedure = self.modified_program.procedure(procedure_name)
        self.solver = solver or ConstraintSolver()
        if deadline is not None:
            # A run-level wall-clock budget (see
            # :class:`repro.solver.core.DeadlineBudget`): the whole pipeline
            # shares this solver, so attaching the budget here covers the
            # engine's branch checks and the lookahead alike.
            self.solver.deadline = deadline
        self.depth_bound = depth_bound
        self.record_trace = record_trace
        self.apply_rule4 = apply_rule4
        self.forward_writes = forward_writes
        self.enable_reset = enable_reset
        self.enable_pruning = enable_pruning
        self.complete_covered_paths = complete_covered_paths
        self.summary_cache = summary_cache
        self.lookahead_memoize = lookahead_memoize

    # -- phase 1: static analysis ------------------------------------------------

    def compute_affected(self) -> DiSEResultStatic:
        """Run the diff and the affected-location analysis (no symbolic execution).

        Both CFGs are the *flattened* interprocedural graphs of the entry
        procedure (callee bodies spliced per call site), and the diff covers
        every procedure of the program: a changed callee marks its spliced
        copies -- and, via the callee content digest embedded in call-node
        structural keys, the reaching call sites themselves -- in every
        caller, so the affected sets propagate interprocedurally.
        """
        diff_map = build_program_diff_map(
            self.base_program,
            self.modified_program,
            entry=self.procedure_name,
            program_diff=diff_program(self.base_program, self.modified_program),
        )
        removed_effects = compute_removed_node_effects(
            diff_map, apply_rule4=self.apply_rule4, forward_writes=self.forward_writes
        )

        changed_or_added = diff_map.changed_or_added_mod_nodes()
        seed_conditionals = [n for n in changed_or_added if n.is_branch]
        seed_writes = [n for n in changed_or_added if n.is_write]
        seed_conditionals.extend(
            n for n in removed_effects.mod_conditionals if n not in seed_conditionals
        )
        seed_writes.extend(n for n in removed_effects.mod_writes if n not in seed_writes)

        analysis = AffectedLocationAnalysis(
            diff_map.cfg_mod, apply_rule4=self.apply_rule4, forward_writes=self.forward_writes
        )
        affected = analysis.compute(seed_conditionals, seed_writes, record_trace=self.record_trace)
        return DiSEResultStatic(
            cfg_base=diff_map.cfg_base,
            cfg_mod=diff_map.cfg_mod,
            diff_map=diff_map,
            removed_effects=removed_effects,
            affected=affected,
        )

    # -- phase 2: directed symbolic execution ------------------------------------

    def run(self) -> DiSEResult:
        """Run both DiSE phases and return the full result."""
        started = time.perf_counter()
        static = self.compute_affected()
        static_seconds = time.perf_counter() - started

        run_cache = self.summary_cache
        summaries_invalidated = 0
        if run_cache is not None:
            # Affected-set-driven invalidation: every region containing a
            # changed node hashes differently in the modified CFG, so the
            # entries whose digest is absent are exactly the edit's ancestor
            # regions.  Eviction is deferred by the cache's miss tolerance
            # (histories revert edits, making absent regions reappear), so
            # the count below covers entries whose region stayed gone long
            # enough; unaffected suffixes keep serving hits either way.
            summaries_invalidated = run_cache.begin_version(
                self.procedure_name, static.cfg_mod.regions.all_digests()
            )

        strategy = DirectedExplorationStrategy(
            static.cfg_mod,
            static.affected,
            record_trace=self.record_trace,
            enable_reset=self.enable_reset,
            enable_pruning=self.enable_pruning,
            solver=self.solver,
            lookahead_memoize=self.lookahead_memoize,
            complete_covered_paths=self.complete_covered_paths,
        )
        execution_skipped = self.enable_pruning and not static.affected.acn
        executor = SymbolicExecutor(
            self.modified_program,
            procedure_name=self.procedure_name,
            solver=self.solver,
            depth_bound=self.depth_bound,
            strategy=strategy,
            summary_cache=run_cache,
        )
        if execution_skipped:
            # No affected conditional branch exists, so no path condition of the
            # modified version can differ from the base version: there is
            # nothing for directed symbolic execution to generate (these are
            # the zero-path-condition rows of Table 2).
            execution = ExecutionResult(
                summary=MethodSummary(self.procedure_name),
                statistics=ExecutionStatistics(),
            )
        else:
            execution = executor.run()
        total_seconds = time.perf_counter() - started
        return DiSEResult(
            procedure_name=self.procedure_name,
            diff_map=static.diff_map,
            removed_effects=static.removed_effects,
            affected=static.affected,
            strategy=strategy,
            execution=execution,
            static_analysis_seconds=static_seconds,
            total_seconds=total_seconds,
            summaries_invalidated=summaries_invalidated,
        )


@dataclass
class DiSEResultStatic:
    """The output of DiSE's static phase (used internally and by tests)."""

    cfg_base: ControlFlowGraph
    cfg_mod: ControlFlowGraph
    diff_map: DiffMap
    removed_effects: RemovedNodeEffects
    affected: AffectedSets


@dataclass
class ComparisonRow:
    """One row of a Table 2 style DiSE-versus-full-symbolic-execution comparison."""

    version: str
    changed_nodes: int
    affected_nodes: int
    dise_seconds: float
    full_seconds: float
    dise_states: int
    full_states: int
    dise_path_conditions: int
    full_path_conditions: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "version": self.version,
            "changed_nodes": self.changed_nodes,
            "affected_nodes": self.affected_nodes,
            "dise_seconds": self.dise_seconds,
            "full_seconds": self.full_seconds,
            "dise_states": self.dise_states,
            "full_states": self.full_states,
            "dise_path_conditions": self.dise_path_conditions,
            "full_path_conditions": self.full_path_conditions,
        }


def run_dise(
    base_program,
    modified_program,
    procedure: Optional[str] = None,
    depth_bound: Optional[int] = None,
    solver: Optional[ConstraintSolver] = None,
    record_trace: bool = False,
    summary_cache: Optional[SummaryCache] = None,
    lookahead_memoize: bool = True,
) -> DiSEResult:
    """Run Directed Incremental Symbolic Execution on two program versions."""
    dise = DiSE(
        base_program,
        modified_program,
        procedure_name=procedure,
        depth_bound=depth_bound,
        solver=solver,
        record_trace=record_trace,
        summary_cache=summary_cache,
        lookahead_memoize=lookahead_memoize,
    )
    return dise.run()


def compare_dise_with_full(
    base_program,
    modified_program,
    procedure: Optional[str] = None,
    version_label: str = "",
    depth_bound: Optional[int] = None,
) -> ComparisonRow:
    """Run DiSE and full symbolic execution on the modified version and compare.

    Separate solver instances are used so that constraint caching in one run
    cannot skew the timing of the other.
    """
    dise_result = run_dise(
        base_program,
        modified_program,
        procedure=procedure,
        depth_bound=depth_bound,
        solver=ConstraintSolver(),
    )
    full_result = symbolic_execute(
        _as_program(modified_program),
        procedure_name=dise_result.procedure_name,
        depth_bound=depth_bound,
        solver=ConstraintSolver(),
    )
    return ComparisonRow(
        version=version_label,
        changed_nodes=dise_result.changed_node_count,
        affected_nodes=dise_result.affected_node_count,
        dise_seconds=dise_result.total_seconds,
        full_seconds=full_result.statistics.elapsed_seconds,
        dise_states=dise_result.states_explored,
        full_states=full_result.statistics.states_explored,
        dise_path_conditions=len(dise_result.path_conditions),
        full_path_conditions=len(full_result.path_conditions),
    )


def _as_program(program_or_procedure) -> Program:
    if isinstance(program_or_procedure, Program):
        return program_or_procedure
    if isinstance(program_or_procedure, Procedure):
        return Program(globals=[], procedures=[program_or_procedure])
    raise TypeError("Expected a Program or a Procedure")
