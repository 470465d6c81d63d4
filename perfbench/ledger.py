"""Per-layer ledger: self time and counts, measured from outside the program.

Only the traced run installs this.  :meth:`Ledger.install` replaces the
public entry points of each layer with timing wrappers.  Class methods are
patched on the class, so every caller is caught.  A module function is
replaced in *every* loaded ``repro`` module whose namespace holds it, because
a ``from ... import name`` copy is looked up there rather than in the
defining module.  A layer's self time is the time spent in its wrapped calls
minus the time spent in wrapped calls nested inside them.

Counts that the program keeps itself (solver, lookahead, summary cache and
store statistics) are read from the statistics objects the program creates;
``__init__`` hooks collect those objects without timing anything.

Spans of at least ``MIN_SPAN_S`` are kept in memory (at most ``MAX_SPANS``)
and written as Chrome trace-event JSON, which Perfetto and chrome://tracing
open.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List

MIN_SPAN_S = 50e-6
MAX_SPANS = 200_000

#: layer -> [(module, function name)] patched wherever the function is bound.
FUNCTIONS = {
    "lang.parse": [("repro.lang.parser", "parse_program")],
    "cfg.build": [("repro.cfg.builder", "build_cfg")],
    "diff": [
        ("repro.diff.ast_diff", "diff_program"),
        ("repro.diff.diff_map", "build_program_diff_map"),
    ],
    "core.affected": [("repro.core.removed", "compute_removed_node_effects")],
}

#: layer -> [(module, class, method)] patched on the class.
METHODS = {
    "cfg.region_hash": [
        ("repro.cfg.region_hash", "RegionHashIndex", name)
        for name in ("__init__", "signature", "segment", "all_digests")
    ],
    "core.affected": [("repro.core.affected", "AffectedLocationAnalysis", "compute")],
    "core.lookahead": [("repro.core.lookahead", "FeasibleReachability", "reachable_targets")],
    "symexec.engine": [("repro.symexec.engine", "SymbolicExecutor", "run")],
    "symexec.distinct_pcs": [
        ("repro.symexec.summary", "MethodSummary", "distinct_path_conditions")
    ],
    "symexec.cache": [
        ("repro.symexec.summary_cache", "SummaryCache", name)
        for name in ("lookup", "peek", "store", "begin_version")
    ],
    "solver.context": [
        ("repro.solver.context", "SolverContext", name)
        for name in ("sync_to", "push", "pop", "check", "assume", "assume_is_satisfiable")
    ],
    "solver.check": [("repro.solver.core", "ConstraintSolver", "check")],
    "store.load": [
        ("repro.parallel.store", "PersistentSummaryStore", name)
        for name in ("load_into", "load_cost_model_into")
    ],
    "store.dump": [("repro.parallel.store", "PersistentSummaryStore", "dump")],
    "evolution.glue": [("repro.evolution.history", "VersionHistoryRunner", "run")],
}

#: Frames the benchmark itself pushes; their self time is never attributed.
BENCH_PREFIX = "bench."


class Ledger:
    def __init__(self):
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.function_calls: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        self.origin = perf_counter()
        self._stack: List[List[float]] = []
        self._patches: List[tuple] = []
        # Statistics objects the program creates (collected by __init__ hooks).
        self.solver_statistics: list = []
        self.lookahead_statistics: list = []
        self.stores: list = []
        self.store_bytes = 0
        # Read from results and runners as they return.
        self.execution = defaultdict(int)
        self.cache_entries = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.peak_interned_terms = 0
        self._engine_depth = 0

    # -- frames ------------------------------------------------------------

    def _close(self, frame: List[float], layer: str, name: str, start: float) -> None:
        elapsed = perf_counter() - start
        self._stack.pop()
        self.self_seconds[layer] += elapsed - frame[0]
        self.calls[layer] += 1
        self.function_calls[name] += 1
        if self._stack:
            self._stack[-1][0] += elapsed
        if elapsed >= MIN_SPAN_S:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((name, layer, start - self.origin, elapsed))
            else:
                self.dropped_spans += 1

    @contextmanager
    def frame(self, layer: str, name: str):
        """A frame the benchmark pushes around its own work."""
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, layer, name, start)

    def wrap(self, layer: str, name: str, function):
        close = self._close
        stack = self._stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                close(frame, layer, name, start)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Import every ``repro`` module, then patch the layer entry points."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        loaded = [module for name, module in sys.modules.items() if name.startswith("repro")]
        for layer, functions in FUNCTIONS.items():
            for module_name, attr in functions:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self.wrap(layer, f"{module_name}.{attr}", original)
                for module in loaded:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        for layer, methods in METHODS.items():
            for module_name, class_name, attr in methods:
                cls = getattr(sys.modules[module_name], class_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self.wrap(layer, f"{class_name}.{attr}", original))
        self._install_readers()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _after(self, owner, attr: str, hook) -> None:
        """Call ``hook(self_, result)`` after ``owner.attr`` returns (untimed)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(self_, *args, **kwargs):
            result = original(self_, *args, **kwargs)
            hook(self_, result)
            return result

        self._patch(owner, attr, wrapper)

    def _install_readers(self) -> None:
        from repro.core.lookahead import FeasibleReachability
        from repro.evolution.history import VersionHistoryRunner
        from repro.parallel.store import PersistentSummaryStore
        from repro.solver.core import ConstraintSolver
        from repro.solver.terms import interned_count
        from repro.symexec.engine import SymbolicExecutor

        def solver_created(solver, _):
            self.solver_statistics.append(solver.statistics)

        def lookahead_created(lookahead, _):
            self.lookahead_statistics.append(lookahead.statistics)

        def store_created(store, _):
            self.stores.append(store)
            if os.path.exists(store.path):
                self.store_bytes += os.path.getsize(store.path)

        def history_done(runner, _):
            cache = runner.summary_cache
            self.cache_entries += len(cache)
            self.cache_hits += cache.statistics.hits
            self.cache_misses += cache.statistics.misses

        self._after(ConstraintSolver, "__init__", solver_created)
        self._after(FeasibleReachability, "__init__", lookahead_created)
        self._after(PersistentSummaryStore, "__init__", store_created)
        self._after(VersionHistoryRunner, "run", history_done)

        # Engine counters come from the outermost runs' results only, so a
        # run nested inside another is not counted twice.
        timed_run = SymbolicExecutor.run

        @functools.wraps(timed_run)
        def engine_run(executor, *args, **kwargs):
            self._engine_depth += 1
            try:
                result = timed_run(executor, *args, **kwargs)
            finally:
                self._engine_depth -= 1
            if self._engine_depth == 0:
                statistics = result.statistics
                for field in (
                    "states_explored",
                    "replayed_paths",
                    "generalized_call_fallbacks",
                    "strategy_token_misses",
                ):
                    self.execution[field] += getattr(statistics, field)
                self.peak_interned_terms = max(self.peak_interned_terms, interned_count())
            return result

        self._patch(SymbolicExecutor, "run", engine_run)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def attributed_seconds(self) -> float:
        return sum(
            seconds
            for layer, seconds in self.self_seconds.items()
            if not layer.startswith(BENCH_PREFIX)
        )

    def metrics(self, wall_seconds: float) -> Dict[str, float]:
        """Every per-layer metric of one traced pass (see README.md)."""
        s = self.self_seconds
        calls = self.calls
        fn = self.function_calls
        look = _sum_fields(
            self.lookahead_statistics,
            ("walk_memo_hits", "walk_memo_misses", "budget_bailouts", "loop_bailouts",
             "eval_bailouts", "solver_bailouts"),
        )
        solver = _sum_fields(
            self.solver_statistics,
            ("queries", "cache_hits", "branch_steps", "incremental_hits", "context_fallbacks"),
        )
        stores = _sum_fields(self.stores, ("loaded_entries", "skipped_entries"))
        return {
            "lang.parse_s": s["lang.parse"],
            "lang.parse_calls": calls["lang.parse"],
            "cfg.build_s": s["cfg.build"],
            "cfg.build_calls": calls["cfg.build"],
            "cfg.region_hash_s": s["cfg.region_hash"],
            "cfg.region_hash_calls": calls["cfg.region_hash"],
            "diff.s": s["diff"],
            "diff.calls": calls["diff"],
            "core.affected_s": s["core.affected"],
            "core.lookahead_s": s["core.lookahead"],
            "core.lookahead_calls": calls["core.lookahead"],
            "core.lookahead_memo_hit_ratio": _ratio(
                look["walk_memo_hits"], look["walk_memo_hits"] + look["walk_memo_misses"]
            ),
            "core.lookahead_bailouts": look["budget_bailouts"] + look["loop_bailouts"]
            + look["eval_bailouts"] + look["solver_bailouts"],
            "symexec.engine_s": s["symexec.engine"],
            "symexec.runs": calls["symexec.engine"],
            "symexec.states": self.execution["states_explored"],
            "symexec.replayed_paths": self.execution["replayed_paths"],
            "symexec.distinct_pcs_s": s["symexec.distinct_pcs"],
            "symexec.cache_s": s["symexec.cache"],
            "symexec.cache_probes": fn["SummaryCache.lookup"] + fn["SummaryCache.peek"],
            "symexec.cache_hit_ratio": _ratio(
                self.cache_hits, self.cache_hits + self.cache_misses
            ),
            "symexec.cache_entries": self.cache_entries,
            "symexec.call_fallbacks": self.execution["generalized_call_fallbacks"],
            "symexec.token_misses": self.execution["strategy_token_misses"],
            "solver.context_s": s["solver.context"],
            "solver.context_calls": calls["solver.context"],
            "solver.context_fallbacks": solver["context_fallbacks"],
            "solver.context_decided_ratio": _ratio(
                solver["incremental_hits"],
                solver["incremental_hits"] + solver["context_fallbacks"],
            ),
            "solver.check_s": s["solver.check"],
            "solver.check_calls": calls["solver.check"],
            "solver.check_cache_hit_ratio": _ratio(solver["cache_hits"], solver["queries"]),
            "solver.branch_steps": solver["branch_steps"],
            "solver.interned_terms": self.peak_interned_terms,
            "store.load_s": s["store.load"],
            "store.dump_s": s["store.dump"],
            "store.bytes": self.store_bytes,
            "store.loaded_entries": stores["loaded_entries"],
            "store.skipped_entries": stores["skipped_entries"],
            "evolution.glue_s": s["evolution.glue"],
            "unattributed_share": 1.0 - self.attributed_seconds() / wall_seconds,
        }

    def write_chrome_trace(self, path: str) -> None:
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            for name, layer, start, duration in self.spans
        ]
        events.append(
            {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "perfbench pass"}}
        )
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"min_span_us": MIN_SPAN_S * 1e6, "dropped_spans": self.dropped_spans},
        }
        with open(path, "w") as handle:
            json.dump(document, handle)


def _sum_fields(objects, fields) -> Dict[str, int]:
    return {field: sum(getattr(obj, field) for obj in objects) for field in fields}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
