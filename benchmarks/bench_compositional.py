"""Compositional (generalised call summary) benchmark (ours, not a paper table).

Exercises the fresh-formal callee summaries end to end and writes
``BENCH_compositional.json``.  Hard gates (enforced here, re-checked
against the baseline JSON by ``run_all.py``):

* **call-site-count independence** -- after running an artifact's base
  version over a shared cache, re-running a *variant with one extra call
  site* to an unchanged callee records zero new generalised entries: one
  ``"call"``-kind entry per callee serves every site, however many there
  are.
* **cross-caller replay** -- running the cross-caller pair (two distinct
  programs sharing one callee, see
  :func:`repro.artifacts.interproc.cross_caller_pair`) in sequence over
  one cache, the second program must replay a generalised summary the
  first recorded (``generalized_call_hits >= 1``) without recording any
  of its own (``generalized_call_stores == 0``).
* **instantiated exactness** -- on every ASW-CALLS/FCS version the
  shared-cache history runner's directed and full legs emit exactly the
  distinct path conditions of cold per-version native runs.

The report also carries the corpus hit rate (generalised hits over
hits + stores across both histories), which ``run_all.py`` prints in its
summary table.
"""

import json
import os
import time

from repro.artifacts import cross_caller_pair, interproc_artifacts
from repro.core.dise import DiSE
from repro.evolution.history import VersionHistoryRunner
from repro.lang.parser import parse_program
from repro.lang.validate import validate_program
from repro.solver.core import ConstraintSolver
from repro.symexec.engine import symbolic_execute
from repro.symexec.summary_cache import SummaryCache

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "BENCH_compositional.json")

#: One extra call site to an *unchanged* callee, per artifact.  The callee's
#: content digest is untouched, so the extra site must replay the existing
#: generalised entry instead of recording anything.
EXTRA_CALL_SITE = {
    "ASW-CALLS": (
        "    d = check_pressure(f1, f2);\n",
        "    d = check_pressure(f1, f2);\n    d = check_pressure(f2, f1);\n",
    ),
    "FCS": (
        "    yaw = sensor_vote(c1, c2, c3);\n",
        "    yaw = sensor_vote(c1, c2, c3);\n    yaw = sensor_vote(a1, b2, c3);\n",
    ),
}


def _distinct_pcs(result):
    return tuple(sorted(map(str, result.summary.distinct_path_conditions())))


def _site_independence(artifact):
    """Base run, then a variant with one more call site, over one cache."""
    old, new = EXTRA_CALL_SITE[artifact.name]
    assert old in artifact.base_source, f"{artifact.name}: call-site anchor moved"
    base_program = parse_program(artifact.base_source)
    variant_program = parse_program(artifact.base_source.replace(old, new))
    validate_program(variant_program)

    cache = SummaryCache()
    solver = ConstraintSolver()
    symbolic_execute(
        base_program,
        procedure_name=artifact.procedure_name,
        solver=solver,
        summary_cache=cache,
    )
    before = cache.entries_per_callee()
    variant = symbolic_execute(
        variant_program,
        procedure_name=artifact.procedure_name,
        solver=solver,
        summary_cache=cache,
    )
    after = cache.entries_per_callee()
    native = symbolic_execute(
        variant_program,
        procedure_name=artifact.procedure_name,
        solver=ConstraintSolver(),
    )
    return {
        "callee_entries_before": before,
        "callee_entries_after": after,
        "added_entries": sum(after.values()) - sum(before.values()),
        "variant_call_stores": variant.statistics.generalized_call_stores,
        "variant_call_hits": variant.statistics.generalized_call_hits,
        "variant_pcs_match": _distinct_pcs(variant) == _distinct_pcs(native),
    }


def _cold_oracle_pcs(artifact, history):
    """Per-version distinct PCs from cold (uncached) native runs."""
    oracles = {}
    for (prev_name, _, _, prev_prog), (name, _, _, prog) in zip(history, history[1:]):
        dise_result = DiSE(
            prev_prog,
            prog,
            procedure_name=artifact.procedure_name,
            solver=ConstraintSolver(),
        ).run()
        full_result = symbolic_execute(
            prog,
            procedure_name=artifact.procedure_name,
            solver=ConstraintSolver(),
        )
        oracles[name] = (
            tuple(
                sorted(
                    map(str, dise_result.execution.summary.distinct_path_conditions())
                )
            ),
            _distinct_pcs(full_result),
        )
    return oracles


def _generalized_totals(report):
    totals = {
        "hits": 0,
        "stores": 0,
        "fallbacks": 0,
        "instantiated_paths": 0,
    }
    legs = [report.seed] if report.seed else []
    for row in report.versions:
        legs.append(row.dise)
        if row.full:
            legs.append(row.full)
    for leg in legs:
        totals["hits"] += leg["generalized_call_hits"]
        totals["stores"] += leg["generalized_call_stores"]
        totals["fallbacks"] += leg["generalized_call_fallbacks"]
        totals["instantiated_paths"] += leg["instantiated_paths"]
    attempts = totals["hits"] + totals["stores"]
    totals["hit_rate"] = round(totals["hits"] / attempts, 4) if attempts else None
    return totals


def _history_entry(artifact):
    history = [
        (name, description, changes, parse_program(source))
        for name, description, changes, source in artifact.history()
    ]
    oracles = _cold_oracle_pcs(artifact, history)

    started = time.perf_counter()
    serial_report = VersionHistoryRunner(artifact).run()
    serial_seconds = time.perf_counter() - started

    rows = []
    for serial_row in serial_report.versions:
        oracle_dise, oracle_full = oracles[serial_row.version]
        rows.append(
            {
                "version": serial_row.version,
                "dise_pcs_match": serial_row.dise_distinct_pcs == oracle_dise,
                "full_pcs_match": serial_row.full_distinct_pcs == oracle_full,
                "generalized_call_hits": serial_row.dise["generalized_call_hits"]
                + (serial_row.full or {}).get("generalized_call_hits", 0),
                "instantiated_paths": serial_row.dise["instantiated_paths"]
                + (serial_row.full or {}).get("instantiated_paths", 0),
            }
        )
    return {
        "procedure": artifact.procedure_name,
        "site_independence": _site_independence(artifact),
        "versions": rows,
        "generalized": _generalized_totals(serial_report),
        "entries_per_callee": serial_report.cache.get("entries_per_callee", {}),
        "serial_seconds": round(serial_seconds, 6),
    }


def _cross_caller_entry():
    artifact_a, artifact_b = cross_caller_pair()
    program_a = parse_program(artifact_a.base_source)
    program_b = parse_program(artifact_b.base_source)
    validate_program(program_a)
    validate_program(program_b)
    cache = SummaryCache()
    solver = ConstraintSolver()
    result_a = symbolic_execute(
        program_a,
        procedure_name=artifact_a.procedure_name,
        solver=solver,
        summary_cache=cache,
    )
    result_b = symbolic_execute(
        program_b,
        procedure_name=artifact_b.procedure_name,
        solver=solver,
        summary_cache=cache,
    )
    native_b = symbolic_execute(
        program_b,
        procedure_name=artifact_b.procedure_name,
        solver=ConstraintSolver(),
    )
    return {
        "a_call_stores": result_a.statistics.generalized_call_stores,
        "b_call_hits": result_b.statistics.generalized_call_hits,
        "b_call_stores": result_b.statistics.generalized_call_stores,
        "entries_per_callee": cache.entries_per_callee(),
        "b_pcs_match": _distinct_pcs(result_b) == _distinct_pcs(native_b),
    }


def run_compositional_benchmarks():
    report = {}
    for artifact in interproc_artifacts():
        entry = _history_entry(artifact)
        report[artifact.name] = entry

        # -- hard gates ------------------------------------------------------
        independence = entry["site_independence"]
        if independence["added_entries"] != 0 or independence["variant_call_stores"] != 0:
            raise AssertionError(
                f"{artifact.name}: extra call site recorded new generalised "
                f"entries ({independence['added_entries']} added, "
                f"{independence['variant_call_stores']} stored)"
            )
        if not independence["variant_pcs_match"]:
            raise AssertionError(
                f"{artifact.name}: extra-call-site variant diverged from native"
            )
        for row in entry["versions"]:
            for gate in ("dise_pcs_match", "full_pcs_match"):
                if not row[gate]:
                    raise AssertionError(
                        f"{artifact.name}/{row['version']}: {gate} failed -- "
                        f"instantiated replay diverged from the cold native run"
                    )
        if entry["generalized"]["hits"] < 1:
            raise AssertionError(
                f"{artifact.name}: history never replayed a generalised summary"
            )

    cross = _cross_caller_entry()
    report["cross_caller"] = cross
    if cross["b_call_hits"] < 1 or cross["b_call_stores"] != 0:
        raise AssertionError(
            f"cross-caller pair: program B hit {cross['b_call_hits']} / stored "
            f"{cross['b_call_stores']} generalised entries (want >=1 / 0)"
        )
    if not cross["b_pcs_match"]:
        raise AssertionError("cross-caller pair: program B diverged from native")

    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


if __name__ == "__main__":
    result = run_compositional_benchmarks()
    for name, entry in result.items():
        if name == "cross_caller":
            print(
                f"cross_caller: b_hits={entry['b_call_hits']} "
                f"b_stores={entry['b_call_stores']} pcs_match={entry['b_pcs_match']}"
            )
        else:
            print(
                f"{name}: added_entries={entry['site_independence']['added_entries']} "
                f"hit_rate={entry['generalized']['hit_rate']} "
                f"entries_per_callee={entry['entries_per_callee']}"
            )
