"""Summary-cache pipeline benchmark (ours, not a paper table).

Three legs per artifact history, written to ``BENCH_parallel.json``:

* **sweep** -- incremental re-analysis of a version history: the base
  version is analysed once untimed (the incremental premise -- a prior
  version has always been analysed), then every later version is fully
  symbolically executed, two ways.  *Plain serial* re-analyses each
  version from scratch (no cache: the simplest correct baseline).  The
  *pipeline* keeps one summary cache across the history.  Both legs are
  wall-clocked (best of ``REPS``; ``SMALL_REPS`` for histories under
  ``SMALL_SECONDS``, whose floors sit near 1.0x where jitter would
  dominate a best-of-3) and the distinct path conditions of every version
  must match across both -- the speedup is only meaningful because the
  output is pinned identical.  ``speedup`` is plain / pipeline: the
  summary cache's speedup.
* **directed** -- a DiSE sweep over the same history with a shared cache.
  On WBS and OAE it must produce **zero** strategy-token-miss fallbacks to
  native exploration.  ASW's directed sweeps produce cross-version token
  misses by construction (a later version's directed strategy
  legitimately diverges from the token a historical entry was recorded
  under), so its misses are recorded, not gated.
* **warm_resume** -- a cold :class:`VersionHistoryRunner` run that dumps
  the :class:`~repro.parallel.store.PersistentSummaryStore`, followed by
  a run resuming from that store with fresh caches.  The resumed run's
  seed leg must replay at least 30% of its paths from the store.

Gating: distinct-PC equality on every version of every artifact, the
directed token-miss pins above, the warm-resume floor, and *per-artifact*
wall-clock floors: the pipeline must never lose to plain serial (WBS and
OAE >= 1.0x) and must keep ASW's algorithmic win (>= 4.2x).  The JSON
records every artifact's measured numbers either way.
"""

import json
import os
import time

from repro.artifacts import all_artifacts
from repro.core.dise import DiSE
from repro.evolution.history import VersionHistoryRunner
from repro.lang.parser import parse_program
from repro.parallel.store import PersistentSummaryStore
from repro.symexec.engine import symbolic_execute
from repro.symexec.summary_cache import SummaryCache

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "BENCH_parallel.json")
STORE_DIR = os.path.join(os.path.dirname(__file__), "results", "parallel_store")

REPS = int(os.environ.get("REPRO_BENCH_REPS", "3"))
#: Histories whose plain-serial sweep finishes under this many seconds
#: get SMALL_REPS timing reps instead of REPS: their floors sit near
#: 1.0x, where a single-digit-millisecond scheduling hiccup in a
#: best-of-3 would flip the comparison.
SMALL_SECONDS = 0.2
SMALL_REPS = max(REPS, 7)
REUSE_FLOOR = 0.30
#: Per-artifact wall-clock floors (plain serial seconds / pipeline
#: seconds).  ASW's floor pins the algorithmic win; the small artifacts'
#: floors pin that the cache never costs more than it saves.
SPEEDUP_FLOORS = {"ASW": 4.2, "WBS": 1.0, "OAE": 1.0}
#: Artifacts whose directed sweeps must report zero strategy-token-miss
#: fallbacks (ASW sweeps inherently miss across versions).
ZERO_MISS_ARTIFACTS = ("WBS", "OAE")


def _distinct(result):
    return sorted(str(c) for c in result.summary.distinct_path_conditions())


def _sweep(artifact):
    """Incremental re-analysis of the history; plain vs pipeline wall clock."""
    programs = [
        (name, parse_program(source)) for name, _, _, source in artifact.history()
    ]
    base_program = programs[0][1]
    history = programs[1:]

    def leg_plain():
        return [
            symbolic_execute(program, procedure_name=artifact.procedure_name)
            for _, program in history
        ]

    def leg_pipeline():
        cache = SummaryCache()
        warm = symbolic_execute(
            base_program, procedure_name=artifact.procedure_name, summary_cache=cache
        )
        started = time.perf_counter()
        results = [
            symbolic_execute(
                program, procedure_name=artifact.procedure_name, summary_cache=cache
            )
            for _, program in history
        ]
        return time.perf_counter() - started, results, warm

    # The base analysis is outside every timed region (both legs need the
    # same version analysed for the PC pin; only the pipeline carries state
    # out of it).  Timings take the best of REPS runs -- the floors gate
    # ratios near 1.0, where jitter would otherwise flip the comparison.
    base_plain = symbolic_execute(
        base_program, procedure_name=artifact.procedure_name
    )
    plain_results = None
    plain_seconds = None
    reps = REPS
    for rep in range(SMALL_REPS):
        if rep >= reps:
            break
        started = time.perf_counter()
        results = leg_plain()
        elapsed = time.perf_counter() - started
        if plain_seconds is None or elapsed < plain_seconds:
            plain_seconds = elapsed
            plain_results = results
        if plain_seconds < SMALL_SECONDS:
            reps = SMALL_REPS

    pipeline_seconds, pipeline_results, pipeline_warm = leg_pipeline()
    for _ in range(reps - 1):
        elapsed, _, _ = leg_pipeline()
        pipeline_seconds = min(pipeline_seconds, elapsed)

    pcs_match = _distinct(base_plain) == _distinct(pipeline_warm) and all(
        _distinct(p) == _distinct(s) for p, s in zip(plain_results, pipeline_results)
    )
    return {
        "versions": len(programs),
        "reps": reps,
        "serial_seconds": round(plain_seconds, 6),
        "pipeline_serial_seconds": round(pipeline_seconds, 6),
        "speedup": round(plain_seconds / pipeline_seconds, 4)
        if pipeline_seconds
        else None,
        "pcs_match": pcs_match,
        "distinct_path_conditions": [len(_distinct(base_plain))]
        + [len(_distinct(r)) for r in plain_results],
        "strategy_token_misses": sum(
            r.statistics.strategy_token_misses for r in pipeline_results
        ),
        "replayed_paths": sum(r.statistics.replayed_paths for r in pipeline_results),
        "paths": sum(len(r.summary) for r in pipeline_results),
    }


def _directed(artifact):
    """DiSE over the history with a shared cache: token misses and replays."""
    cache = SummaryCache()
    previous = artifact.base_program()
    misses = 0
    replayed = 0
    for name in artifact.version_names():
        program = artifact.version_program(name)
        result = DiSE(
            previous,
            program,
            procedure_name=artifact.procedure_name,
            summary_cache=cache,
        ).run()
        misses += result.execution.statistics.strategy_token_misses
        replayed += result.execution.statistics.replayed_paths
        previous = program
    return {"strategy_token_misses": misses, "replayed_paths": replayed}


def _history_pcs(report):
    return {
        row.version: [list(row.dise_distinct_pcs), list(row.full_distinct_pcs)]
        for row in report.versions
    }


def _warm_resume(artifact):
    """Cold history run + store dump, then resume from the store."""
    os.makedirs(STORE_DIR, exist_ok=True)
    store_path = os.path.join(STORE_DIR, f"{artifact.name.lower()}_store.json")
    store = PersistentSummaryStore(store_path)
    preexisting = store.entry_count() or 0

    first = VersionHistoryRunner(artifact, store_path=store_path).run()
    resumed = VersionHistoryRunner(artifact, store_path=store_path).run()

    seed = resumed.seed or {}
    seed_paths = seed.get("paths", 0)
    seed_reuse = (
        round(seed.get("replayed_paths", 0) / seed_paths, 4) if seed_paths else None
    )
    return {
        "store_path": os.path.relpath(store_path, os.path.dirname(__file__)),
        "store_entries_preexisting": preexisting,
        "store_loaded_first": first.cache.get("store_loaded", 0),
        "store_loaded_resumed": resumed.cache.get("store_loaded", 0),
        "store_skipped_first": first.cache.get("store_skipped", 0),
        "store_skipped_resumed": resumed.cache.get("store_skipped", 0),
        "seed_path_reuse": seed_reuse,
        "first_seconds": round(first.elapsed_seconds, 6),
        "resumed_seconds": round(resumed.elapsed_seconds, 6),
        "pcs_match": _history_pcs(first) == _history_pcs(resumed),
    }


def run_parallel_benchmarks():
    report = {"reps": REPS}
    for artifact in all_artifacts():
        report[artifact.name] = {
            "sweep": _sweep(artifact),
            "directed": _directed(artifact),
            "warm_resume": _warm_resume(artifact),
        }
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def test_parallel_benchmark(run_once):
    report = run_once(run_parallel_benchmarks)
    print()
    for artifact in all_artifacts():
        name = artifact.name
        rows = report[name]
        sweep, directed, warm = rows["sweep"], rows["directed"], rows["warm_resume"]
        print(
            f"{name}: cache speedup={sweep['speedup']}x ({sweep['serial_seconds']:.2f}s -> "
            f"{sweep['pipeline_serial_seconds']:.2f}s) "
            f"directed misses={directed['strategy_token_misses']} "
            f"warm seed reuse={warm['seed_path_reuse']}"
        )
        # Hard gates on every artifact: identical output on every version,
        # the directed token-miss pins, and a lossless store resume.
        assert sweep["pcs_match"], f"{name}: the cache pipeline diverged from plain serial"
        if name in ZERO_MISS_ARTIFACTS:
            assert directed["strategy_token_misses"] == 0, (
                f"{name}: directed replay fell back to native exploration "
                f"{directed['strategy_token_misses']} times"
            )
        assert warm["pcs_match"], f"{name}: store resume changed results"
        # A healthy store loses nothing: every dumped entry must load back.
        assert warm["store_skipped_first"] == 0, (
            f"{name}: warm resume silently dropped {warm['store_skipped_first']} entries"
        )
        assert warm["store_skipped_resumed"] == 0, (
            f"{name}: warm resume silently dropped {warm['store_skipped_resumed']} entries"
        )
        assert warm["seed_path_reuse"] is not None
        assert warm["seed_path_reuse"] >= REUSE_FLOOR, (
            f"{name}: warm resume replayed only {warm['seed_path_reuse']:.0%}"
        )
    for name, floor in SPEEDUP_FLOORS.items():
        sweep = report[name]["sweep"]
        assert sweep["replayed_paths"] > 0, f"{name}: nothing was replayed"
        assert sweep["speedup"] >= floor, (
            f"{name}: cache speedup {sweep['speedup']}x below the "
            f"{floor}x floor (plain {sweep['serial_seconds']:.3f}s vs "
            f"pipeline {sweep['pipeline_serial_seconds']:.3f}s)"
        )
    assert os.path.exists(RESULTS_PATH)


if __name__ == "__main__":
    print(json.dumps(run_parallel_benchmarks(), indent=2, sort_keys=True))
