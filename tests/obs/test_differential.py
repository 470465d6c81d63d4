"""Differential gate: telemetry-enabled runs are observationally silent.

Recording must never change what the pipeline computes.  For every
artifact history (ASW/WBS/OAE) the distinct path-condition sets and the
counter values of each version must be identical with telemetry off and
on.

Every leg counter, the evicted-entry count and the cache size are pinned
exactly: the analysis is serial, so none of them depends on scheduling.
"""

import pytest

from repro import obs
from repro.artifacts.mutants import asw_artifact, oae_artifact, wbs_artifact
from repro.evolution.history import VersionHistoryRunner

ARTIFACTS = {
    "asw": asw_artifact,
    "wbs": wbs_artifact,
    "oae": oae_artifact,
}

#: Leg counters pinned exactly (timings are excluded: they are
#: measurements of the run, not outputs of the analysis).
_EXACT_LEG_KEYS = (
    "states",
    "paths",
    "distinct_path_conditions",
    "decisions",
    "replayed_paths",
    "replayed_segments",
    "cache_hits",
    "cache_misses",
    "cache_stores",
    "strategy_token_misses",
    "generalized_call_hits",
    "generalized_call_stores",
    "generalized_call_fallbacks",
    "instantiated_paths",
)

def _counters(report):
    rows = []
    for row in report.versions:
        entry = {
            "version": row.version,
            "changed_nodes": row.changed_nodes,
            "affected_nodes": row.affected_nodes,
            "invalidated": row.invalidated,
            "dise_pcs": row.dise_distinct_pcs,
            "full_pcs": row.full_distinct_pcs,
        }
        for leg_name in ("dise", "full"):
            leg = getattr(row, leg_name)
            if leg is not None:
                for key in _EXACT_LEG_KEYS:
                    entry[f"{leg_name}.{key}"] = leg[key]
        rows.append(entry)
    return rows


@pytest.mark.parametrize("artifact_name", sorted(ARTIFACTS))
def test_telemetry_is_observationally_silent(artifact_name):
    factory = ARTIFACTS[artifact_name]

    assert obs.active() is None
    plain = VersionHistoryRunner(factory()).run()
    with obs.recording(f"{artifact_name}-sweep") as recorder:
        recorded = VersionHistoryRunner(factory()).run()
    assert recorder.spans, "the recording saw no spans at all"

    assert _counters(recorded) == _counters(plain)
    assert recorded.cache["entries"] == plain.cache["entries"]
    if plain.seed is not None:
        for key in _EXACT_LEG_KEYS:
            assert recorded.seed[key] == plain.seed[key], key
