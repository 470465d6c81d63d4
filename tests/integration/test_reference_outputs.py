"""Every version's output pinned to the recorded reference.

The differential oracles compare a warm run with a cold run of the same
code, so a change that alters both runs alike passes them.  These tests pin
the absolute output instead: the distinct path-condition count of each
version's DiSE leg (against its recorded predecessor) and full leg, as the
shared-cache history runner produces them, must equal the counts recorded
in ``perfbench/reference.json``.  That file holds cold plain runs; it is
regenerated with ``python3 perfbench/reference.py``.

Each leg's ``distinct_path_conditions()`` is also checked against the
string-keyed dedup it replaced (kept here as the reference): the same
conditions in the same order.
"""

import functools
import json
import os

import pytest

from repro.artifacts import all_artifacts, interproc_artifacts
from repro.evolution.history import VersionHistoryRunner
from repro.symexec.summary import MethodSummary

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


def _str_keyed_distinct(summary: MethodSummary):
    """The reference dedup: first occurrence per rendered condition text."""
    seen = set()
    unique = []
    for condition in summary.path_conditions:
        key = str(condition)
        if key not in seen:
            seen.add(key)
            unique.append(condition)
    return unique


class _DedupRecordingRunner(VersionHistoryRunner):
    """Records, per version and leg, the leg's distinct path conditions
    next to what :func:`_str_keyed_distinct` makes of the same summary."""

    def __init__(self, artifact):
        super().__init__(artifact, include_full=True)
        self.version = None
        self.dedups = {}

    def _run_version(self, prev_name, prev_prog, name, *args):
        self.version = name
        return super()._run_version(prev_name, prev_prog, name, *args)

    def _check(self, leg, summary):
        self.dedups[(self.version, leg)] = (
            summary.distinct_path_conditions(),
            _str_keyed_distinct(summary),
        )

    def _full_leg(self, program, cached):
        leg, result, distinct = super()._full_leg(program, cached)
        self._check("full", result.summary)
        return leg, result, distinct

    def _dise_leg(self, base, modified, cached):
        leg, result, distinct = super()._dise_leg(base, modified, cached)
        self._check("dise", result.execution.summary)
        return leg, result, distinct


@functools.lru_cache(maxsize=None)
def _report(name):
    """One warm history run per artifact, shared by all its versions."""
    runner = _DedupRecordingRunner(ARTIFACTS[name])
    return runner.run(), runner.dedups


def _assert_dedup_matches_reference(dedups, version, leg):
    distinct, reference = dedups[(version, leg)]
    assert len(distinct) == len(reference)
    assert all(mine is theirs for mine, theirs in zip(distinct, reference))


def _distinct_count(pcs):
    return len(set(pcs))


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_base_full_leg_matches_reference(name):
    report, dedups = _report(name)
    expected, _ = _reference()["full"][f"{name}|base"]
    _assert_dedup_matches_reference(dedups, None, "full")
    assert report.seed["distinct_path_conditions"] == expected


@pytest.mark.parametrize(
    "name, version",
    [(a.name, spec.name) for a in ARTIFACTS.values() for spec in a.versions],
    ids=lambda value: value,
)
def test_version_legs_match_reference(name, version):
    report, dedups = _report(name)
    row = next(row for row in report.versions if row.version == version)
    _assert_dedup_matches_reference(dedups, version, "dise")
    _assert_dedup_matches_reference(dedups, version, "full")
    reference = _reference()
    dise_expected, _ = reference["dise"][f"{name}|{row.previous}|{version}"]
    full_expected, _ = reference["full"][f"{name}|{version}"]
    assert _distinct_count(row.dise_distinct_pcs) == dise_expected
    assert row.dise["distinct_path_conditions"] == dise_expected
    assert _distinct_count(row.full_distinct_pcs) == full_expected
    assert row.full["distinct_path_conditions"] == full_expected
