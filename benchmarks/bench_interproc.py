"""Interprocedural DiSE benchmark (ours, not a paper table).

Runs the two multi-procedure version histories (ASW-CALLS and FCS, see
:mod:`repro.artifacts.interproc`) through the shared-cache
:class:`~repro.evolution.history.VersionHistoryRunner` and writes
``BENCH_interproc.json``.  Hard gates (enforced
here, re-checked against the baseline JSON by ``run_all.py``):

* **callee-summary reuse** -- every version must reuse >= 30% of the
  previous versions' summaries, and the *callee-preserving* versions
  (caller-only edits, which leave every callee's spliced regions and
  digests intact) must clear the same floor specifically: this is the
  per-procedure cache scoping earning its keep.
* **interprocedural affected-set precision** -- caller-only edits must not
  drag the whole flattened CFG into the affected sets (ratio < 1), and the
  directed run must generate strictly fewer distinct path conditions than
  full symbolic execution on at least one version per artifact.
"""

import json
import os
import time

from repro.artifacts import interproc_artifacts
from repro.cfg.builder import build_cfg
from repro.evolution.history import VersionHistoryRunner
from repro.lang.parser import parse_program

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "BENCH_interproc.json")

REUSE_FLOOR = 0.30

#: Versions whose edits touch only the entry procedure: every callee's
#: spliced regions hash identically to the previous version, so their
#: summaries must keep replaying.
CALLEE_PRESERVING = {
    "ASW-CALLS": ("v4", "v5"),
    "FCS": ("v3", "v6"),
}


def _history_rows(artifact, report):
    preserving = set(CALLEE_PRESERVING.get(artifact.name, ()))
    rows = []
    for row in report.versions:
        cfg = build_cfg(
            parse_program(artifact.history()[0][3])
            if row.version == "base"
            else parse_program(artifact.version_source(row.version)),
            artifact.procedure_name,
        )
        rows.append(
            {
                "version": row.version,
                "changes": row.changes,
                "description": row.description,
                "callee_preserving": row.version in preserving,
                "summary_reuse": row.summary_reuse,
                "hit_ratio": row.hit_ratio,
                "changed_nodes": row.changed_nodes,
                "affected_nodes": row.affected_nodes,
                "cfg_nodes": len(cfg),
                "affected_ratio": round(row.affected_nodes / len(cfg), 4),
                "invalidated": row.invalidated,
                "dise_distinct_pcs": len(row.dise_distinct_pcs),
                "full_distinct_pcs": len(row.full_distinct_pcs),
            }
        )
    return rows


def run_interproc_benchmarks():
    report = {}
    for artifact in interproc_artifacts():
        started = time.perf_counter()
        serial_report = VersionHistoryRunner(artifact).run()
        serial_seconds = time.perf_counter() - started
        rows = _history_rows(artifact, serial_report)

        reuse_values = [r["summary_reuse"] for r in rows if r["summary_reuse"] is not None]
        preserving_reuse = [
            r["summary_reuse"]
            for r in rows
            if r["callee_preserving"] and r["summary_reuse"] is not None
        ]
        entry = {
            "procedure": artifact.procedure_name,
            "versions": rows,
            "reuse_min": min(reuse_values) if reuse_values else None,
            "callee_preserving_reuse_min": min(preserving_reuse)
            if preserving_reuse
            else None,
            "serial_seconds": round(serial_seconds, 6),
            "cache": serial_report.cache,
        }
        report[artifact.name] = entry

        # -- hard gates ------------------------------------------------------
        if entry["reuse_min"] is None or entry["reuse_min"] < REUSE_FLOOR:
            raise AssertionError(
                f"{artifact.name}: summary reuse {entry['reuse_min']} below {REUSE_FLOOR}"
            )
        if (
            entry["callee_preserving_reuse_min"] is None
            or entry["callee_preserving_reuse_min"] < REUSE_FLOOR
        ):
            raise AssertionError(
                f"{artifact.name}: callee-preserving reuse "
                f"{entry['callee_preserving_reuse_min']} below {REUSE_FLOOR}"
            )
        for row in rows:
            if row["callee_preserving"] and row["affected_ratio"] >= 1.0:
                raise AssertionError(
                    f"{artifact.name}/{row['version']}: caller-only edit affected "
                    f"the whole flattened CFG ({row['affected_nodes']} nodes)"
                )
        if not any(
            row["dise_distinct_pcs"] < row["full_distinct_pcs"] for row in rows
        ):
            raise AssertionError(
                f"{artifact.name}: directed search never generated fewer path "
                f"conditions than full symbolic execution"
            )

    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


if __name__ == "__main__":
    result = run_interproc_benchmarks()
    for name, entry in result.items():
        print(
            f"{name}: reuse_min={entry['reuse_min']} "
            f"callee_preserving_reuse_min={entry['callee_preserving_reuse_min']}"
        )
