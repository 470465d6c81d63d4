"""Chaos differential gate: a store damaged by injected faults never
changes the answer.

The store's claim worth gating on is not "damage is survived" but "damage
is survived *without changing the answer*": a history that dumped its
summaries under torn writes and corrupt frames, then resumes warm from
that damaged store, must still emit the identical distinct path-condition
set a cold run produces, on every version of every artifact history
(ASW/WBS/OAE + the interprocedural ASW-CALLS/FCS -- 56 version pairs).

The schedule comes from ``REPRO_FAULTS`` when set (the CI chaos job pins
``seed:6,torn:0.3,corrupt:0.3``) and defaults to the same spec here, so a
plain local ``pytest tests/chaos`` exercises the gate identically.  The
store path is relative (the test runs inside its own temporary
directory) because the torn-write roll is keyed on it; under the default
spec the ASW and FCS dumps tear, so their resumes salvage a truncated
store.

The cold oracle runs *inside* the installed plan under
:func:`faults.suspended`, which proves suspension really silences the
schedule -- a fault leaking into the oracle would break the comparison
loudly.
"""

import pytest

from repro import faults
from repro.artifacts import all_artifacts, interproc_artifacts
from repro.core.dise import DiSE
from repro.evolution.history import VersionHistoryRunner
from repro.lang.parser import parse_program

DEFAULT_SPEC = "seed:6,torn:0.3,corrupt:0.3"

_ARTIFACTS = {a.name: a for a in list(all_artifacts()) + list(interproc_artifacts())}


def _pcs(summary):
    return tuple(sorted(str(c) for c in summary.distinct_path_conditions()))


def _cold_pcs(artifact):
    """Each adjacent pair's distinct PCs from a cold DiSE run (no cache)."""
    programs = [parse_program(source) for _, _, _, source in artifact.history()]
    return [
        _pcs(DiSE(base, modified, procedure_name=artifact.procedure_name).run().execution.summary)
        for base, modified in zip(programs, programs[1:])
    ]


@pytest.mark.parametrize("artifact_name", sorted(_ARTIFACTS))
def test_resume_from_faulted_store_identical_distinct_pcs(
    artifact_name, tmp_path, monkeypatch
):
    artifact = _ARTIFACTS[artifact_name]
    monkeypatch.chdir(tmp_path)
    store_path = f"{artifact_name}.jsonl"
    plan = faults.plan_from_env(default=DEFAULT_SPEC)
    with faults.injected(plan):
        with faults.suspended():
            cold = _cold_pcs(artifact)
        # Directed legs only: the gate is on DiSE's output, and FCS's full
        # legs would add a 27 MB store for no extra coverage.
        VersionHistoryRunner(artifact, include_full=False, store_path=store_path).run()
        resumed = VersionHistoryRunner(
            artifact, include_full=False, store_path=store_path
        ).run()
    assert len(resumed.versions) == len(cold)
    for row, expected in zip(resumed.versions, cold):
        assert row.dise_distinct_pcs == expected, (
            f"{artifact_name} {row.previous}->{row.version}: "
            f"resume from a faulted store diverged from the cold run"
        )
    if plan.rates.get("corrupt-frame", 0.0) > 0.0:
        # The first run's corrupt frames reached the disk and were refused.
        assert resumed.cache["store_skipped"] > 0
