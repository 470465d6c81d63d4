#!/usr/bin/env python
"""Run every benchmark smoke-fast and fail on regression vs checked-in baselines.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--list] [--only NAME ...]

Each ``bench_*.py`` module exposes one public ``run_*`` entry point that
returns its report without needing pytest.  This driver invokes them all,
then compares the structural metrics of the JSON-producing benchmarks
(``BENCH_solver.json``, ``BENCH_history.json``) against the values that
were checked in before the run.  Wall-clock times are reported but never
gated on (CI machines vary); counters and ratios are what must not regress:

* solver bench: ``prefix_reuse_ratio`` / ``incremental_hit_ratio`` may drop
  at most ``RATIO_TOLERANCE`` below baseline, path-condition counts must
  match exactly;
* history bench: per-artifact ``summary_reuse_min`` must stay above the
  hard floor and within tolerance of baseline, distinct path-condition
  counts per version must match exactly;
* lookahead bench: per-artifact query/decision reductions must stay above
  the 40% floor (enforced inside the bench) and within tolerance of the
  checked-in baseline, and memoized/baseline path conditions must match;
* parallel bench (the summary-cache pipeline): the cached sweep must match
  plain serial distinct path conditions exactly, directed WBS/OAE sweeps
  must report zero strategy-token-miss fallbacks, the persistent-store
  warm resume must replay >= 30% of the seed leg, and every artifact
  history must meet its cache-speedup floor (plain serial / pipeline:
  ASW >= 4.2x, WBS/OAE >= 1.0x -- absolute floors, not baseline-relative);
* compositional bench: adding a call site to an unchanged callee must
  record zero new generalised entries, the cross-caller pair must replay
  (never re-record) the shared callee's summary, and instantiated replay
  must match cold native path conditions on every version;
* faults bench: two concurrent store writers must lose zero entries;
* obs bench: telemetry overhead on the ASW history sweep must stay within
  the 5% budget, telemetry-off and telemetry-on runs must be bit-identical
  on every artifact history, and the exported Chrome trace must load.

Every benchmark additionally runs under a telemetry recording and leaves
one trace artifact pair (``traces/<name>.trace.json`` Chrome trace-event +
``traces/<name>.trace.jsonl``) for CI to upload.

Exit status is non-zero when any benchmark raises or any gate fails, so
this file doubles as the CI entry point for the perf ladder.
"""

import argparse
import importlib
import json
import os
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

for path in (BENCH_DIR, os.path.join(REPO_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro import obs
from repro.obs.export import write_chrome_trace, write_jsonl

#: Where the per-benchmark trace artifacts land (uploaded by CI).
TRACES_DIR = os.path.join(BENCH_DIR, "traces")

#: Allowed absolute drop in a reuse/hit ratio before it counts as a regression.
RATIO_TOLERANCE = 0.10
#: Hard floor for the history benchmark's per-version summary reuse.
REUSE_FLOOR = 0.30

#: module name -> entry-point callable name.
BENCHMARKS = {
    "bench_fig1_testx_tree": "build_figure1",
    "bench_fig2_update_cfg": "build_figure2",
    "bench_fig5_affected_sets": "compute_affected_sets",
    "bench_motivating_example": "compare_motivating_example",
    "bench_table1_directed_trace": "run_directed_with_trace",
    "bench_table2_asw": "run_table2_asw",
    "bench_table2_wbs": "run_table2_wbs",
    "bench_table2_oae": "run_table2_oae",
    "bench_table3_asw": "run_table3_asw",
    "bench_table3_wbs": "run_table3_wbs",
    "bench_table3_oae": "run_table3_oae",
    "bench_ablation": "run_ablation",
    "bench_solver_incremental": "run_solver_benchmarks",
    "bench_version_history": "run_history_benchmarks",
    "bench_lookahead": "run_lookahead_benchmarks",
    "bench_parallel": "run_parallel_benchmarks",
    "bench_interproc": "run_interproc_benchmarks",
    "bench_compositional": "run_compositional_benchmarks",
    "bench_faults": "run_faults_benchmarks",
    "bench_obs": "run_obs_benchmarks",
}

def _load_baseline(filename):
    path = os.path.join(BENCH_DIR, filename)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _check_solver(baseline, report, failures):
    if baseline is None:
        return
    for workload in ("chain", "update_full", "update_dise"):
        for ratio in ("prefix_reuse_ratio", "incremental_hit_ratio"):
            old = baseline.get(workload, {}).get(ratio)
            new = report.get(workload, {}).get(ratio)
            if old is not None and new is not None and new < old - RATIO_TOLERANCE:
                failures.append(
                    f"solver/{workload}.{ratio}: {new:.3f} regressed below "
                    f"baseline {old:.3f} - {RATIO_TOLERANCE}"
                )
    for workload in ("update_full", "update_dise"):
        old = baseline.get(workload, {}).get("path_conditions")
        new = report.get(workload, {}).get("path_conditions")
        if old is not None and new != old:
            failures.append(f"solver/{workload}.path_conditions: {new} != baseline {old}")
    # Atom examinations are deterministic (the same under every hash seed),
    # so any growth means the context re-propagates work it had done.
    old = baseline.get("totals", {}).get("worklist_rounds")
    new = report.get("totals", {}).get("worklist_rounds")
    if old is not None and new is not None and new > old:
        failures.append(f"solver/totals.worklist_rounds: {new} exceeds baseline {old}")


def _check_history(baseline, report, failures):
    for artifact, rows in report.items():
        reuse = rows.get("summary_reuse_min")
        if reuse is None or reuse < REUSE_FLOOR:
            failures.append(f"history/{artifact}: summary_reuse_min {reuse} below {REUSE_FLOOR}")
        if baseline is None or artifact not in baseline:
            continue
        old_rows = baseline[artifact]
        old_reuse = old_rows.get("summary_reuse_min")
        if old_reuse is not None and reuse is not None and reuse < old_reuse - RATIO_TOLERANCE:
            failures.append(
                f"history/{artifact}: summary_reuse_min {reuse:.3f} regressed below "
                f"baseline {old_reuse:.3f} - {RATIO_TOLERANCE}"
            )
        old_versions = {row["version"]: row for row in old_rows.get("versions", [])}
        for row in rows.get("versions", []):
            old_row = old_versions.get(row["version"])
            if old_row is None:
                continue
            for leg in ("dise", "full"):
                old_leg, new_leg = old_row.get(leg), row.get(leg)
                if old_leg is None or new_leg is None:
                    continue
                old_pcs = old_leg.get("distinct_path_conditions")
                new_pcs = new_leg.get("distinct_path_conditions")
                if old_pcs != new_pcs:
                    failures.append(
                        f"history/{artifact}/{row['version']}/{leg}: distinct path "
                        f"conditions {new_pcs} != baseline {old_pcs}"
                    )


#: Hard floors for the summary cache's speedup (see bench_parallel.py).
#: ASW's floor pins the algorithmic win; WBS/OAE pin that the cache never
#: lets the pipeline lose to plain serial.
PARALLEL_SPEEDUP_FLOORS = {"ASW": 4.2, "WBS": 1.0, "OAE": 1.0}
#: Artifacts whose directed sweeps must report zero token-miss fallbacks
#: (ASW's directed sweeps miss across versions by construction).
PARALLEL_ZERO_MISS = ("WBS", "OAE")
PARALLEL_REUSE_FLOOR = 0.30


def _check_parallel(baseline, report, failures):
    rows_by_artifact = {}
    for artifact in ("ASW", "WBS", "OAE"):
        rows = report.get(artifact)
        if rows is None:
            failures.append(f"parallel/{artifact}: missing from report")
            continue
        rows_by_artifact[artifact] = rows
        sweep, directed, warm = rows["sweep"], rows["directed"], rows["warm_resume"]
        if not sweep.get("pcs_match"):
            failures.append(f"parallel/{artifact}: the cache pipeline diverged from plain serial")
        if artifact in PARALLEL_ZERO_MISS and directed.get("strategy_token_misses"):
            failures.append(
                f"parallel/{artifact}: directed sweep hit "
                f"{directed['strategy_token_misses']} strategy-token-miss "
                f"fallbacks (expected 0)"
            )
        if not sweep.get("replayed_paths"):
            failures.append(f"parallel/{artifact}: no cached summary was replayed")
        if not warm.get("pcs_match"):
            failures.append(f"parallel/{artifact}: store warm resume changed results")
        reuse = warm.get("seed_path_reuse")
        if reuse is None or reuse < PARALLEL_REUSE_FLOOR:
            failures.append(
                f"parallel/{artifact}: warm-resume seed reuse {reuse} below "
                f"{PARALLEL_REUSE_FLOOR}"
            )
        if baseline is not None and artifact in baseline:
            old_pcs = baseline[artifact]["sweep"].get("distinct_path_conditions")
            new_pcs = sweep.get("distinct_path_conditions")
            if old_pcs is not None and new_pcs != old_pcs:
                failures.append(
                    f"parallel/{artifact}: distinct path conditions {new_pcs} != "
                    f"baseline {old_pcs}"
                )
    # Per-artifact absolute floors on the summary cache's speedup.
    for artifact, floor in PARALLEL_SPEEDUP_FLOORS.items():
        sweep = rows_by_artifact.get(artifact, {}).get("sweep", {})
        speedup = sweep.get("speedup")
        if speedup is None or speedup < floor:
            failures.append(
                f"parallel/{artifact}: cache speedup {speedup}x below the {floor}x floor"
            )
    # Job-summary table: one line per artifact so a CI log shows the
    # whole speedup picture without opening the JSON.
    if rows_by_artifact:
        print("       summary-cache sweep (plain serial vs pipeline):")
        print(
            f"       {'artifact':<10}{'speedup':>9}{'floor':>7}{'plain_s':>9}"
            f"{'cache_s':>9}{'misses':>8}"
        )
        for artifact, rows in rows_by_artifact.items():
            sweep, directed = rows["sweep"], rows["directed"]
            print(
                f"       {artifact:<10}"
                f"{sweep.get('speedup', 0):>8}x"
                f"{PARALLEL_SPEEDUP_FLOORS.get(artifact, '-'):>7}"
                f"{sweep.get('serial_seconds', 0):>9.3f}"
                f"{sweep.get('pipeline_serial_seconds', 0):>9.3f}"
                f"{directed.get('strategy_token_misses', 0):>8}"
            )


def _check_interproc(baseline, report, failures):
    """Gates for the interprocedural benchmark (bench_interproc.py).

    The bench enforces its own hard floors (callee-summary reuse >= 30%,
    caller-only edits must not affect the whole flattened CFG); this
    re-checks the floors on the report and compares the
    structural metrics against the checked-in baseline.
    """
    for artifact in ("ASW-CALLS", "FCS"):
        rows = report.get(artifact)
        if rows is None:
            failures.append(f"interproc/{artifact}: missing from report")
            continue
        for metric in ("reuse_min", "callee_preserving_reuse_min"):
            value = rows.get(metric)
            if value is None or value < REUSE_FLOOR:
                failures.append(
                    f"interproc/{artifact}.{metric}: {value} below {REUSE_FLOOR}"
                )
        if baseline is None or artifact not in baseline:
            continue
        old_rows = baseline[artifact]
        for metric in ("reuse_min", "callee_preserving_reuse_min"):
            old, new = old_rows.get(metric), rows.get(metric)
            if old is not None and new is not None and new < old - RATIO_TOLERANCE:
                failures.append(
                    f"interproc/{artifact}.{metric}: {new:.3f} regressed below "
                    f"baseline {old:.3f} - {RATIO_TOLERANCE}"
                )
        old_versions = {row["version"]: row for row in old_rows.get("versions", [])}
        for row in rows.get("versions", []):
            old_row = old_versions.get(row["version"])
            if old_row is None:
                continue
            for metric in ("dise_distinct_pcs", "full_distinct_pcs"):
                if row.get(metric) != old_row.get(metric):
                    failures.append(
                        f"interproc/{artifact}/{row['version']}.{metric}: "
                        f"{row.get(metric)} != baseline {old_row.get(metric)}"
                    )


def _check_compositional(baseline, report, failures):
    """Gates for the generalised call-summary benchmark (bench_compositional.py).

    The bench enforces its own hard gates (zero new entries from an added
    call site, cross-caller replay, instantiated-vs-native exactness);
    this re-checks them on the report, compares
    the corpus hit rate against the checked-in baseline, and prints the
    hit-rate summary table.
    """
    rows_by_artifact = {}
    for artifact in ("ASW-CALLS", "FCS"):
        rows = report.get(artifact)
        if rows is None:
            failures.append(f"compositional/{artifact}: missing from report")
            continue
        rows_by_artifact[artifact] = rows
        independence = rows.get("site_independence", {})
        if independence.get("added_entries") != 0:
            failures.append(
                f"compositional/{artifact}: extra call site added "
                f"{independence.get('added_entries')} generalised entries (want 0)"
            )
        if not independence.get("variant_pcs_match"):
            failures.append(
                f"compositional/{artifact}: extra-call-site variant diverged from native"
            )
        for row in rows.get("versions", []):
            for gate in ("dise_pcs_match", "full_pcs_match"):
                if not row.get(gate):
                    failures.append(
                        f"compositional/{artifact}/{row.get('version')}: {gate} failed"
                    )
        hit_rate = rows.get("generalized", {}).get("hit_rate")
        if hit_rate is None:
            failures.append(f"compositional/{artifact}: no generalised cache traffic")
        elif baseline is not None and artifact in baseline:
            old = baseline[artifact].get("generalized", {}).get("hit_rate")
            if old is not None and hit_rate < old - RATIO_TOLERANCE:
                failures.append(
                    f"compositional/{artifact}.hit_rate: {hit_rate:.3f} regressed "
                    f"below baseline {old:.3f} - {RATIO_TOLERANCE}"
                )
    cross = report.get("cross_caller") or {}
    if cross.get("b_call_hits", 0) < 1 or cross.get("b_call_stores") != 0:
        failures.append(
            f"compositional/cross_caller: hits={cross.get('b_call_hits')} "
            f"stores={cross.get('b_call_stores')} (want >=1 / 0)"
        )
    if not cross.get("b_pcs_match"):
        failures.append("compositional/cross_caller: program B diverged from native")
    # Job-summary table: the corpus hit rate per artifact, so a CI log
    # shows how often call sites replayed a generalised entry instead of
    # recording one.
    if rows_by_artifact:
        print("       generalised call-summary corpus:")
        print(
            f"       {'artifact':<12}{'hit_rate':>9}{'hits':>7}{'stores':>8}"
            f"{'fallbacks':>11}{'callees':>9}"
        )
        for artifact, rows in rows_by_artifact.items():
            corpus = rows.get("generalized", {})
            print(
                f"       {artifact:<12}"
                f"{corpus.get('hit_rate', 0) or 0:>9}"
                f"{corpus.get('hits', 0):>7}"
                f"{corpus.get('stores', 0):>8}"
                f"{corpus.get('fallbacks', 0):>11}"
                f"{len(rows.get('entries_per_callee', {})):>9}"
            )


def _check_faults(baseline, report, failures):
    store = report.get("concurrent_store") or {}
    if store.get("lost_entries") != 0:
        failures.append(
            f"faults: concurrent store writers lost {store.get('lost_entries')} entries"
        )


def _check_lookahead(baseline, report, failures):
    for artifact in ("ASW", "WBS", "OAE"):
        row = report.get(artifact)
        if row is None:
            failures.append(f"lookahead/{artifact}: missing from report")
            continue
        if not row.get("path_conditions_match"):
            failures.append(f"lookahead/{artifact}: path conditions diverged between modes")
        if baseline is None or artifact not in baseline:
            continue
        for metric in ("query_reduction", "decision_reduction"):
            old = baseline[artifact].get(metric)
            new = row.get(metric)
            if old is not None and new is not None and new < old - RATIO_TOLERANCE:
                failures.append(
                    f"lookahead/{artifact}.{metric}: {new:.3f} regressed below "
                    f"baseline {old:.3f} - {RATIO_TOLERANCE}"
                )
        old_pcs = baseline[artifact].get("distinct_path_conditions")
        new_pcs = row.get("distinct_path_conditions")
        if old_pcs is not None and new_pcs != old_pcs:
            failures.append(
                f"lookahead/{artifact}.distinct_path_conditions: {new_pcs} != baseline {old_pcs}"
            )


def _check_obs(baseline, report, failures):
    """Gates for the telemetry benchmark (bench_obs.py).

    All three legs are self-judging (the bench computes the booleans);
    this enforces them: overhead within budget, telemetry observationally
    silent on every artifact history, and a loadable trace.
    """
    overhead = report.get("overhead") or {}
    if not overhead.get("within_budget"):
        failures.append(
            f"obs: telemetry overhead ratio {overhead.get('ratio')} exceeded "
            f"the {overhead.get('budget')}x + {overhead.get('epsilon_seconds')}s budget"
        )
    for artifact, rows in sorted((report.get("differential") or {}).items()):
        if not rows.get("pcs_match"):
            failures.append(
                f"obs/{artifact}: telemetry changed the distinct path conditions"
            )
        if not rows.get("counters_match"):
            failures.append(f"obs/{artifact}: telemetry changed the leg counters")
    trace = report.get("trace") or {}
    if not trace.get("chrome_loadable"):
        failures.append("obs: the Chrome trace artifact did not load back as JSON")


def _export_trace(name, recorder):
    """Write one benchmark's trace artifact pair under ``traces/``."""
    os.makedirs(TRACES_DIR, exist_ok=True)
    write_chrome_trace(
        recorder,
        os.path.join(TRACES_DIR, f"{name}.trace.json"),
        metadata={"benchmark": name},
    )
    write_jsonl(recorder, os.path.join(TRACES_DIR, f"{name}.trace.jsonl"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="list benchmarks and exit")
    parser.add_argument("--only", nargs="*", help="run only the named bench modules")
    args = parser.parse_args(argv)

    if args.list:
        for name in BENCHMARKS:
            print(name)
        return 0

    selected = {
        name: entry
        for name, entry in BENCHMARKS.items()
        if not args.only or name in args.only
    }
    if args.only and len(selected) != len(args.only):
        unknown = set(args.only) - set(selected)
        print(f"unknown benchmarks: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2

    # Snapshot the checked-in baselines up front: the JSON benchmarks
    # overwrite their own files while running, and a regressed run must not
    # clobber the reference it was judged against (a second run would then
    # compare regressed-vs-regressed and pass).
    baselines = {
        name: _load_baseline(name)
        for name in (
            "BENCH_solver.json",
            "BENCH_history.json",
            "BENCH_lookahead.json",
            "BENCH_parallel.json",
            "BENCH_interproc.json",
            "BENCH_compositional.json",
            "BENCH_faults.json",
            "BENCH_obs.json",
        )
    }
    solver_baseline = baselines["BENCH_solver.json"]
    history_baseline = baselines["BENCH_history.json"]
    lookahead_baseline = baselines["BENCH_lookahead.json"]
    parallel_baseline = baselines["BENCH_parallel.json"]
    interproc_baseline = baselines["BENCH_interproc.json"]
    compositional_baseline = baselines["BENCH_compositional.json"]
    faults_baseline = baselines["BENCH_faults.json"]
    obs_baseline = baselines["BENCH_obs.json"]

    failures = []
    crashes = {}
    timings = {}
    for name, entry in selected.items():
        started = time.perf_counter()
        recorder = None
        try:
            module = importlib.import_module(name)
            runner = getattr(module, entry)
            with obs.recording(name, benchmark=name) as recorder:
                report = runner()
        except Exception as error:
            # One crashed benchmark must not stop the sweep or bury the
            # others' results under its traceback: record a one-line
            # summary here, keep running, and print the full tracebacks
            # together at the end.  The partial trace is still exported --
            # a flame chart of a crashed benchmark is exactly what a CI
            # post-mortem wants.
            failures.append(f"{name}: {type(error).__name__}: {error}")
            crashes[name] = traceback.format_exc()
            elapsed = time.perf_counter() - started
            timings[name] = elapsed
            print(f"  FAIL {name:<32} {elapsed:6.2f}s  {type(error).__name__}: {error}")
            if recorder is not None:
                _export_trace(name, recorder)
            continue
        elapsed = time.perf_counter() - started
        timings[name] = elapsed
        print(f"  ok   {name:<32} {elapsed:6.2f}s")
        _export_trace(name, recorder)
        if name == "bench_solver_incremental":
            _check_solver(solver_baseline, report, failures)
        elif name == "bench_version_history":
            _check_history(history_baseline, report, failures)
        elif name == "bench_lookahead":
            _check_lookahead(lookahead_baseline, report, failures)
        elif name == "bench_parallel":
            _check_parallel(parallel_baseline, report, failures)
        elif name == "bench_interproc":
            _check_interproc(interproc_baseline, report, failures)
        elif name == "bench_compositional":
            _check_compositional(compositional_baseline, report, failures)
        elif name == "bench_faults":
            _check_faults(faults_baseline, report, failures)
        elif name == "bench_obs":
            _check_obs(obs_baseline, report, failures)

    # Wall-clock recap, slowest first: the interleaved gate output above
    # pushes the per-benchmark timing lines apart, and "which benchmark is
    # eating the CI budget" is the question this table answers at a glance.
    if timings:
        total = sum(timings.values())
        print(f"\n  wall clock ({total:.2f}s total):")
        print(f"  {'benchmark':<34}{'seconds':>9}{'share':>7}")
        for name, elapsed in sorted(timings.items(), key=lambda kv: -kv[1]):
            status = "FAIL" if name in crashes else "ok"
            share = elapsed / total if total else 0.0
            print(f"  {name:<34}{elapsed:>9.2f}{share:>6.0%} {status}")

    if failures:
        for name, baseline in baselines.items():
            if baseline is not None:
                with open(os.path.join(BENCH_DIR, name), "w", encoding="utf-8") as handle:
                    json.dump(baseline, handle, indent=2, sort_keys=True)
                    handle.write("\n")
        print(f"\n{len(failures)} failure(s) (baseline JSONs restored):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        if crashes:
            print("\nfull tracebacks:", file=sys.stderr)
            for name, formatted in crashes.items():
                print(f"\n--- {name} ---\n{formatted}", file=sys.stderr)
        return 1
    print(f"\nall {len(selected)} benchmarks passed their gates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
