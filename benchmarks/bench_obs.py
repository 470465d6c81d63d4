"""Telemetry benchmark (ours, not a paper table): overhead + silence + trace.

Three legs, written to ``BENCH_obs.json``:

* **overhead** -- the ASW history sweep (serial, both legs) timed with
  telemetry off and on, min-of-3 each so a loaded CI machine's scheduling
  noise does not masquerade as telemetry cost.  Gated on
  ``enabled <= disabled * 1.05 + 0.05s``: the 5% relative budget from the
  ISSUE plus a small absolute epsilon, because at sub-second sweep times a
  single scheduler preemption is itself worth several percent.
* **differential** -- telemetry off vs on must produce identical distinct
  path conditions and identical per-version leg counters on every
  artifact history (ASW/WBS/OAE, serial -- the serial pipeline is
  counter-deterministic, so any drift here is telemetry changing the run).
* **trace** -- an ASW sweep under a recording, exported to
  ``traces/asw_sweep.trace.json`` (Chrome trace-event, loadable in
  chrome://tracing or Perfetto) and ``traces/asw_sweep.trace.jsonl``.
  Gated on the Chrome trace loading back as JSON.
"""

import json
import os
import time

from repro import obs
from repro.artifacts import asw_artifact, oae_artifact, wbs_artifact
from repro.evolution.history import VersionHistoryRunner
from repro.obs.export import write_chrome_trace, write_jsonl

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "BENCH_obs.json")
TRACES_DIR = os.path.join(os.path.dirname(__file__), "traces")

#: The ISSUE's overhead budget: enabled wall clock may exceed disabled by
#: at most 5%, plus an absolute epsilon for scheduler noise at sub-second
#: sweep times.
OVERHEAD_BUDGET = 1.05
OVERHEAD_EPSILON = 0.05
REPEATS = 3

ARTIFACTS = (asw_artifact, wbs_artifact, oae_artifact)


def _sweep_seconds(enabled):
    """One serial ASW sweep's wall clock, telemetry on or off."""
    previous = obs.install(None)
    try:
        if enabled:
            obs.enable(process="main")
        started = time.perf_counter()
        VersionHistoryRunner(asw_artifact()).run()
        return time.perf_counter() - started
    finally:
        obs.install(previous)


def _overhead_leg():
    disabled = min(_sweep_seconds(enabled=False) for _ in range(REPEATS))
    enabled = min(_sweep_seconds(enabled=True) for _ in range(REPEATS))
    ratio = enabled / disabled if disabled else None
    return {
        "disabled_seconds": round(disabled, 6),
        "enabled_seconds": round(enabled, 6),
        "ratio": round(ratio, 4) if ratio is not None else None,
        "budget": OVERHEAD_BUDGET,
        "epsilon_seconds": OVERHEAD_EPSILON,
        "within_budget": enabled <= disabled * OVERHEAD_BUDGET + OVERHEAD_EPSILON,
        "repeats": REPEATS,
    }


#: Leg counters the serial differential pins exactly (timings excluded:
#: they measure the run, they are not outputs of the analysis).
_LEG_KEYS = (
    "states",
    "paths",
    "distinct_path_conditions",
    "decisions",
    "replayed_paths",
    "replayed_segments",
    "cache_hits",
    "cache_misses",
    "cache_stores",
    "generalized_call_hits",
    "generalized_call_stores",
    "instantiated_paths",
)


def _fingerprint(report):
    rows = []
    for row in report.versions:
        entry = {
            "version": row.version,
            "changed_nodes": row.changed_nodes,
            "affected_nodes": row.affected_nodes,
            "dise_pcs": row.dise_distinct_pcs,
            "full_pcs": row.full_distinct_pcs,
        }
        for leg_name in ("dise", "full"):
            leg = getattr(row, leg_name)
            if leg is not None:
                entry.update({f"{leg_name}.{key}": leg[key] for key in _LEG_KEYS})
        rows.append(entry)
    return rows


def _differential_leg():
    rows = {}
    for factory in ARTIFACTS:
        artifact = factory()
        previous = obs.install(None)
        try:
            plain = VersionHistoryRunner(factory()).run()
            with obs.recording(f"{artifact.name}-diff"):
                recorded = VersionHistoryRunner(factory()).run()
        finally:
            obs.install(previous)
        plain_rows, recorded_rows = _fingerprint(plain), _fingerprint(recorded)
        rows[artifact.name] = {
            "versions": len(plain_rows),
            "pcs_match": all(
                a["dise_pcs"] == b["dise_pcs"] and a["full_pcs"] == b["full_pcs"]
                for a, b in zip(plain_rows, recorded_rows)
            ),
            "counters_match": plain_rows == recorded_rows,
        }
    return rows


def _trace_leg():
    os.makedirs(TRACES_DIR, exist_ok=True)
    previous = obs.install(None)
    try:
        with obs.recording("asw-sweep", artifact="ASW") as recorder:
            VersionHistoryRunner(asw_artifact()).run()
    finally:
        obs.install(previous)
    chrome_path = os.path.join(TRACES_DIR, "asw_sweep.trace.json")
    jsonl_path = os.path.join(TRACES_DIR, "asw_sweep.trace.jsonl")
    chrome_events = write_chrome_trace(
        recorder, chrome_path, metadata={"benchmark": "bench_obs", "artifact": "ASW"}
    )
    jsonl_lines = write_jsonl(recorder, jsonl_path)
    with open(chrome_path, "r", encoding="utf-8") as handle:
        loadable = isinstance(json.load(handle).get("traceEvents"), list)
    return {
        "spans": len(recorder.spans),
        "events": len(recorder.events),
        "processes": recorder.processes(),
        "chrome_events": chrome_events,
        "chrome_loadable": loadable,
        "jsonl_lines": jsonl_lines,
        "chrome_path": os.path.relpath(chrome_path, os.path.dirname(__file__)),
        "jsonl_path": os.path.relpath(jsonl_path, os.path.dirname(__file__)),
    }


def run_obs_benchmarks():
    report = {
        "overhead": _overhead_leg(),
        "differential": _differential_leg(),
        "trace": _trace_leg(),
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


if __name__ == "__main__":
    print(json.dumps(run_obs_benchmarks(), indent=2, sort_keys=True))
