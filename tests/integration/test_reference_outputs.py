"""Every version's output pinned to the recorded reference.

The differential oracles compare a warm run with a cold run of the same
code, so a change that alters both runs alike passes them.  These tests pin
the absolute output instead: the distinct path-condition count of each
version's DiSE leg (against its recorded predecessor) and full leg, as the
shared-cache history runner produces them, must equal the counts recorded
in ``perfbench/reference.json``.  That file holds cold plain runs; it is
regenerated with ``python3 perfbench/reference.py``.
"""

import functools
import json
import os

import pytest

from repro.artifacts import all_artifacts, interproc_artifacts
from repro.evolution.history import VersionHistoryRunner

REFERENCE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "perfbench",
    "reference.json",
)

ARTIFACTS = {a.name: a for a in list(all_artifacts()) + list(interproc_artifacts())}


@functools.lru_cache(maxsize=None)
def _reference():
    with open(REFERENCE) as handle:
        return json.load(handle)


@functools.lru_cache(maxsize=None)
def _report(name):
    """One warm history run per artifact, shared by all its versions."""
    return VersionHistoryRunner(ARTIFACTS[name], include_full=True).run()


def _distinct_count(pcs):
    return len(set(pcs))


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_base_full_leg_matches_reference(name):
    report = _report(name)
    expected, _ = _reference()["full"][f"{name}|base"]
    assert report.seed["distinct_path_conditions"] == expected


@pytest.mark.parametrize(
    "name, version",
    [(a.name, spec.name) for a in ARTIFACTS.values() for spec in a.versions],
    ids=lambda value: value,
)
def test_version_legs_match_reference(name, version):
    report = _report(name)
    row = next(row for row in report.versions if row.version == version)
    reference = _reference()
    dise_expected, _ = reference["dise"][f"{name}|{row.previous}|{version}"]
    full_expected, _ = reference["full"][f"{name}|{version}"]
    assert _distinct_count(row.dise_distinct_pcs) == dise_expected
    assert row.dise["distinct_path_conditions"] == dise_expected
    assert _distinct_count(row.full_distinct_pcs) == full_expected
    assert row.full["distinct_path_conditions"] == full_expected
