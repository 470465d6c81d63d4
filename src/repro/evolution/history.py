"""Batch driver for whole version histories (ROADMAP "Workloads").

The Table 2/3 benchmarks treat every program version as an isolated job:
re-parse the base program, re-diff, re-analyse and re-execute from scratch.
A :class:`VersionHistoryRunner` instead runs an *ordered* artifact history
the way DiSE is meant to be used during software evolution:

* every program text is parsed exactly once, and its CFG built once (the
  DiSE run whose modified program it is, its full leg and the next pair's
  base share the graph memoised on the parse);
* each adjacent version pair is diffed exactly once (inside the one
  :class:`~repro.core.dise.DiSE` pipeline constructed for it);
* one :class:`~repro.solver.core.ConstraintSolver` is shared across the
  whole history, so constraint-cache and incremental-context state carries
  over;
* one :class:`~repro.symexec.summary_cache.SummaryCache` is shared, so
  version N+1 replays the subtree and segment summaries version N recorded
  instead of re-executing unchanged regions.

Per version the runner reports the directed (DiSE) run, optionally a full
symbolic execution of the version (the Table 2 comparison leg), and three
reuse ratios:

* ``path_reuse`` -- completed paths replayed from cache / all paths;
* ``hit_ratio`` -- cache hits / cache attempts;
* ``decision_reuse`` -- 1 minus the cached runs' solver decisions over a
  cold baseline's (only when ``measure_baseline`` is set; this is the
  metric that credits segment composition, which skips solver work without
  replaying whole paths).

``summary_reuse`` is the maximum of the available ratios and is what the
history benchmark gates on.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.artifacts.mutants import Artifact
from repro.core.dise import DiSE, DiSEResult
from repro.lang.ast_nodes import Program
from repro.lang.parser import parse_program
from repro.parallel.store import CostModelState, PersistentSummaryStore
from repro.solver.core import ConstraintSolver
from repro.symexec.engine import ExecutionResult, ExecutionStatistics, symbolic_execute
from repro.symexec.state import PathCondition
from repro.symexec.summary_cache import SummaryCache


def _decisions(statistics: ExecutionStatistics) -> int:
    """Branch-feasibility decisions taken by a run (executor + lookahead)."""
    return (
        statistics.solver_queries
        + statistics.incremental_hits
        + statistics.lookahead_solver_queries
        + statistics.lookahead_incremental_hits
    )


def _leg(statistics: ExecutionStatistics, seconds: float, paths: int, distinct: int) -> Dict:
    return {
        "seconds": round(seconds, 6),
        "states": statistics.states_explored,
        "paths": paths,
        "distinct_path_conditions": distinct,
        "decisions": _decisions(statistics),
        "replayed_paths": statistics.replayed_paths,
        "replayed_segments": statistics.replayed_segments,
        "cache_hits": statistics.summary_cache_hits,
        "cache_misses": statistics.summary_cache_misses,
        "cache_stores": statistics.summary_cache_stores,
        "strategy_token_misses": statistics.strategy_token_misses,
    }


@dataclass
class VersionRunReport:
    """Everything measured while processing one version of a history."""

    artifact: str
    version: str
    previous: str
    changes: int
    description: str
    changed_nodes: int = 0
    affected_nodes: int = 0
    invalidated: int = 0
    dise: Optional[Dict] = None
    full: Optional[Dict] = None
    baseline_dise: Optional[Dict] = None
    baseline_full: Optional[Dict] = None
    path_reuse: Optional[float] = None
    hit_ratio: Optional[float] = None
    decision_reuse: Optional[float] = None
    states_saved: Optional[float] = None
    full_path_reuse: Optional[float] = None
    full_states_saved: Optional[float] = None
    #: Distinct path conditions of each leg (kept out of as_dict(); the
    #: differential tests compare their text against cold oracle runs).
    dise_distinct: Tuple[PathCondition, ...] = ()
    full_distinct: Tuple[PathCondition, ...] = ()

    @property
    def dise_distinct_pcs(self) -> Tuple[str, ...]:
        """The DiSE leg's distinct path conditions as sorted text."""
        return tuple(sorted(map(str, self.dise_distinct)))

    @property
    def full_distinct_pcs(self) -> Tuple[str, ...]:
        """The full leg's distinct path conditions as sorted text."""
        return tuple(sorted(map(str, self.full_distinct)))

    @property
    def summary_reuse(self) -> Optional[float]:
        """The strongest demonstrated reuse for this version.

        Maximum over the combined and per-leg ratios: replayed-path
        fraction, solver-decision savings and state-visit savings.  The
        per-leg view matters because the two legs have independent summary
        corpora -- a version whose directed run is its history's first
        broad directed exploration has nothing directed to reuse, while its
        full-exploration leg replays most of the previous version's work.
        All constituent ratios are reported alongside, so the maximum
        hides nothing.
        """
        ratios = [
            r
            for r in (
                self.path_reuse,
                self.decision_reuse,
                self.states_saved,
                self.full_path_reuse,
                self.full_states_saved,
            )
            if r is not None
        ]
        return max(ratios) if ratios else None

    def as_dict(self) -> Dict:
        return {
            "artifact": self.artifact,
            "version": self.version,
            "previous": self.previous,
            "changes": self.changes,
            "description": self.description,
            "changed_nodes": self.changed_nodes,
            "affected_nodes": self.affected_nodes,
            "invalidated": self.invalidated,
            "dise": self.dise,
            "full": self.full,
            "baseline_dise": self.baseline_dise,
            "baseline_full": self.baseline_full,
            "path_reuse": self.path_reuse,
            "hit_ratio": self.hit_ratio,
            "decision_reuse": self.decision_reuse,
            "states_saved": self.states_saved,
            "full_path_reuse": self.full_path_reuse,
            "full_states_saved": self.full_states_saved,
            "summary_reuse": self.summary_reuse,
        }


@dataclass
class HistoryReport:
    """The outcome of running one artifact's whole version history."""

    artifact: str
    procedure: str
    seed: Optional[Dict]
    versions: List[VersionRunReport] = field(default_factory=list)
    cache: Dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict:
        return {
            "artifact": self.artifact,
            "procedure": self.procedure,
            "seed": self.seed,
            "versions": [report.as_dict() for report in self.versions],
            "cache": self.cache,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }


class VersionHistoryRunner:
    """Run DiSE over an ordered version history with shared caches.

    Args:
        artifact: the artifact whose history to run (base + versions).
        depth_bound: optional branch-decision bound passed to every run.
        include_full: also run full symbolic execution of every version
            through the shared cache (the Table 2 comparison leg; it is also
            what seeds cross-version reuse for versions whose directed runs
            explore nothing).
        measure_baseline: additionally run every version cold (fresh solver,
            no cache) to report timing/decision baselines and the
            ``decision_reuse`` ratio.  Doubles the work; meant for the
            benchmark harness, not for production batch runs.
        summary_cache: the shared cache (a fresh one is created when omitted).
        solver: the shared solver (a fresh one is created when omitted).
        workers: must be 1; any other value raises ``ValueError``.  The
            analysis is serial; the keyword stays because
            ``perfbench/child.py`` passes ``workers=1``.
        store_path: when set, the shared summary cache is loaded from this
            :class:`~repro.parallel.store.PersistentSummaryStore` file
            before the history runs (warm resume across processes/CI jobs)
            and dumped back to it afterwards.  Intern ids never touch the
            disk -- entries are stored as term trees and re-interned on
            load.  The store's ``costmodel`` line round-trips through a
            fresh :class:`~repro.parallel.store.CostModelState` per run.
    """

    def __init__(
        self,
        artifact: Artifact,
        depth_bound: Optional[int] = None,
        include_full: bool = True,
        measure_baseline: bool = False,
        summary_cache: Optional[SummaryCache] = None,
        solver: Optional[ConstraintSolver] = None,
        workers: int = 1,
        store_path: Optional[str] = None,
    ):
        if workers != 1:
            raise ValueError(f"workers must be 1 (the analysis is serial), got {workers!r}")
        self.artifact = artifact
        self.depth_bound = depth_bound
        self.include_full = include_full
        self.measure_baseline = measure_baseline
        self.summary_cache = summary_cache if summary_cache is not None else SummaryCache()
        self.solver = solver or ConstraintSolver()
        self.store_path = store_path

    # -- pieces ---------------------------------------------------------------

    def _parse_history(self) -> Iterator[Tuple[str, str, int, Program]]:
        """Parse every program text of the history exactly once, in order.

        Lazily, so that a version's parse, and the CFGs and analyses
        memoised on it, is dropped once the pair after it has run.
        """
        for name, description, changes, source in self.artifact.history():
            yield name, description, changes, parse_program(source)

    def _full_leg(
        self, program: Program, cached: bool
    ) -> Tuple[Dict, ExecutionResult, List[PathCondition]]:
        """Run full symbolic execution of ``program``; returns the leg's
        report, the result and its distinct path conditions."""
        store_hits_before = self.summary_cache.statistics.store_hits
        started = time.perf_counter()
        result = symbolic_execute(
            program,
            procedure_name=self.artifact.procedure_name,
            depth_bound=self.depth_bound,
            solver=self.solver if cached else ConstraintSolver(),
            summary_cache=self.summary_cache if cached else None,
        )
        seconds = time.perf_counter() - started
        distinct = result.summary.distinct_path_conditions()
        leg = _leg(result.statistics, seconds, len(result.summary), len(distinct))
        if cached and self.store_path is not None:
            # Hits served by store-loaded entries during this warm-resume
            # leg (satisfying a cross-process resume, not in-run reuse).
            leg["store_hits"] = self.summary_cache.statistics.store_hits - store_hits_before
        return leg, result, distinct

    def _dise_leg(
        self, base: Program, modified: Program, cached: bool
    ) -> Tuple[Dict, DiSEResult, List[PathCondition]]:
        """Run DiSE on one version pair; returns the leg's report, the
        result and its distinct path conditions."""
        store_hits_before = self.summary_cache.statistics.store_hits
        started = time.perf_counter()
        result = DiSE(
            base,
            modified,
            procedure_name=self.artifact.procedure_name,
            depth_bound=self.depth_bound,
            solver=self.solver if cached else ConstraintSolver(),
            summary_cache=self.summary_cache if cached else None,
        ).run()
        seconds = time.perf_counter() - started
        distinct = result.execution.summary.distinct_path_conditions()
        leg = _leg(
            result.execution.statistics, seconds, len(result.execution.summary), len(distinct)
        )
        if cached and self.store_path is not None:
            leg["store_hits"] = self.summary_cache.statistics.store_hits - store_hits_before
        return leg, result, distinct

    # -- the batch run --------------------------------------------------------

    def run(self) -> HistoryReport:
        started = time.perf_counter()
        history = self._parse_history()
        previous = next(history)
        report = HistoryReport(
            artifact=self.artifact.name, procedure=self.artifact.procedure_name, seed=None
        )

        store = None
        store_loaded = 0
        store_skipped = 0
        cost_model = None
        costmodel_adopted = 0
        if self.store_path is not None:
            store = PersistentSummaryStore(self.store_path)
            store_loaded = store.load_into(self.summary_cache)
            store_skipped = store.skipped_entries
            if store_loaded:
                # The adopted summaries are new to the garbage collector, and
                # the full collection they make due would otherwise land
                # inside the first legs and skew their ``seconds``.
                gc.collect()
            # perfbench/ledger.py times load_cost_model_into and
            # perfbench/selfcheck.py requires a store resume to call it.
            cost_model = CostModelState()
            costmodel_adopted = store.load_cost_model_into(cost_model)

        if self.include_full:
            # Seed the cache with the base version's summaries: every later
            # version whose edit leaves a suffix or segment of the base
            # intact replays it from here.
            report.seed, _, _ = self._full_leg(previous[3], cached=True)

        for current in history:
            prev_name, _, _, prev_prog = previous
            name, description, changes, prog = current
            row = self._run_version(prev_name, prev_prog, name, description, changes, prog)
            report.versions.append(row)
            previous = current

        report.cache = dict(self.summary_cache.statistics.as_dict(), entries=len(self.summary_cache))
        if store is not None:
            report.cache["store_loaded"] = store_loaded
            report.cache["store_skipped"] = store_skipped
            report.cache["store_dumped"] = store.dump(self.summary_cache, cost_model=cost_model)
            report.cache["costmodel_adopted"] = costmodel_adopted
            report.cache["costmodel_published"] = store.costmodel_published
            report.cache["store_path"] = self.store_path
            # How many of this run's cache hits the loaded entries served:
            # the warm-resume effectiveness measure.
            report.cache["store_hits"] = self.summary_cache.statistics.store_hits
        report.elapsed_seconds = time.perf_counter() - started
        return report

    def _run_version(
        self,
        prev_name: str,
        prev_prog: Program,
        name: str,
        description: str,
        changes: int,
        prog: Program,
    ) -> VersionRunReport:
        """Process one adjacent version pair and build its report row."""
        dise_leg, dise_result, dise_distinct = self._dise_leg(prev_prog, prog, cached=True)
        row = VersionRunReport(
            artifact=self.artifact.name,
            version=name,
            previous=prev_name,
            changes=changes,
            description=description,
            changed_nodes=dise_result.changed_node_count,
            affected_nodes=dise_result.affected_node_count,
            invalidated=dise_result.summaries_invalidated,
            dise=dise_leg,
            dise_distinct=tuple(dise_distinct),
        )
        legs = [dise_leg]
        if self.include_full:
            full_leg, _, full_distinct = self._full_leg(prog, cached=True)
            row.full = full_leg
            row.full_distinct = tuple(full_distinct)
            legs.append(full_leg)
        if self.measure_baseline:
            row.baseline_dise, _, _ = self._dise_leg(prev_prog, prog, cached=False)
            if self.include_full:
                row.baseline_full, _, _ = self._full_leg(prog, cached=False)

        paths = sum(leg["paths"] for leg in legs)
        replayed = sum(leg["replayed_paths"] for leg in legs)
        attempts = sum(leg["cache_hits"] + leg["cache_misses"] for leg in legs)
        hits = sum(leg["cache_hits"] for leg in legs)
        row.path_reuse = round(replayed / paths, 4) if paths else None
        row.hit_ratio = round(hits / attempts, 4) if attempts else None
        if row.full is not None and row.full["paths"]:
            row.full_path_reuse = round(
                row.full["replayed_paths"] / row.full["paths"], 4
            )
        if self.measure_baseline:
            cold = (row.baseline_dise or {}).get("decisions", 0) + (
                (row.baseline_full or {}).get("decisions", 0)
            )
            warm = sum(leg["decisions"] for leg in legs)
            if cold > 0:
                row.decision_reuse = round(1.0 - warm / cold, 4)
            cold_states = (row.baseline_dise or {}).get("states", 0) + (
                (row.baseline_full or {}).get("states", 0)
            )
            warm_states = sum(leg["states"] for leg in legs)
            if cold_states > 0:
                row.states_saved = round(1.0 - warm_states / cold_states, 4)
            if row.full is not None and row.baseline_full is not None:
                if row.baseline_full["states"] > 0:
                    row.full_states_saved = round(
                        1.0 - row.full["states"] / row.baseline_full["states"], 4
                    )
        return row


def run_history(
    artifact: Artifact,
    depth_bound: Optional[int] = None,
    include_full: bool = True,
    measure_baseline: bool = False,
) -> HistoryReport:
    """Convenience wrapper: run one artifact's history with fresh shared caches."""
    return VersionHistoryRunner(
        artifact,
        depth_bound=depth_bound,
        include_full=include_full,
        measure_baseline=measure_baseline,
    ).run()
