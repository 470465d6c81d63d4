"""Multi-procedure evaluation artifacts (interprocedural DiSE workloads).

Two version histories exercising the procedure-call pipeline end to end:

* **ASW-CALLS** -- the altitude-switch artifact refactored into callees:
  the alarm region becomes ``raise_alarm`` and the display cascade becomes
  ``check_pressure``, both called from the ``altitude`` entry.  Its history
  mixes *callee-only* edits (which must invalidate exactly the caller
  regions that reach the edited callee), *caller-only* edits (which must
  leave every callee summary valid) and reverts.

* **FCS** -- a fresh three-procedure flight-control selector sized at
  2^10+ paths per version: a triplicated ``sensor_vote`` majority voter
  (called three times, 8 paths per splice) feeding an ``escalate`` limiter.
  This is the OAE-scale interprocedural workload: subtrees below each
  call site carry real solver work.

Both artifacts validate (:func:`repro.lang.validate.validate_program`) on
every version; the histories follow the same ``(name, description,
changes, source)`` shape the batch :class:`~repro.evolution.history.
VersionHistoryRunner` consumes.
"""

from __future__ import annotations

from repro.artifacts.mutants import Artifact, _versions

# -- ASW split into callees ----------------------------------------------------

ASW_CALLS_BASE_SOURCE = """\
global int alarm = 0;
global int display = 0;
global int alarmOut = 0;

proc raise_alarm(int alt, int thresh, int inhibit) {
    if (alt < thresh) {
        if (inhibit == 0) {
            alarm = 1;
        } else {
            alarm = 2;
        }
    } else {
        alarm = 0;
    }
    return alarm;
}

proc check_pressure(int f1, int f2) {
    if (f1 > 0) {
        display = 1;
    } else {
        display = 2;
    }
    if (f2 > 0) {
        display = display + 2;
    }
    return display;
}

proc altitude(int alt, int thresh, int inhibit, int f1, int f2, int f3, int f4) {
    int a = 0;
    int d = 0;
    a = raise_alarm(alt, thresh, inhibit);
    d = check_pressure(f1, f2);
    if (f3 > 0) {
        alarmOut = a;
    } else {
        alarmOut = 0;
    }
    if (f4 > 0) {
        display = d + 1;
    }
}
"""

_ASW_CALLS_EDITS = [
    (
        "v1",
        [("alt < thresh", "alt <= thresh")],
        1,
        "callee-only: relax the alarm guard in raise_alarm",
    ),
    (
        "v2",
        [("alarm = 2;", "alarm = 3;")],
        1,
        "callee-only: inhibited alarm code changes in raise_alarm",
    ),
    (
        "v3",
        [("display = 1;", "display = 4;")],
        1,
        "callee-only: display base value changes in check_pressure",
    ),
    (
        "v4",
        [("alarmOut = a;", "alarmOut = a + 1;")],
        1,
        "caller-only: alarm output biased; both callees untouched",
    ),
    (
        "v5",
        [("display = d + 1;", "display = d + 2;")],
        1,
        "caller-only: display bump changes; both callees untouched",
    ),
    (
        "v6",
        [
            ("alt < thresh", "alt <= thresh"),
            ("display = d + 1;", "display = d + 2;"),
        ],
        2,
        "mixed: callee guard edit (v1) plus caller display edit (v5)",
    ),
    (
        "v7",
        [("if (inhibit == 0)", "if (inhibit <= 0)")],
        1,
        "callee-only: inhibit comparison widens in raise_alarm",
    ),
    (
        "v8",
        [],
        0,
        "revert to base: every summary recorded for the base should replay",
    ),
]

ASW_CALLS_ARTIFACT = Artifact(
    name="ASW-CALLS",
    procedure_name="altitude",
    base_source=ASW_CALLS_BASE_SOURCE,
    versions=_versions(ASW_CALLS_BASE_SOURCE, _ASW_CALLS_EDITS),
    description="altitude switch split into raise_alarm/check_pressure callees",
)


# -- FCS: three-procedure flight-control selector (2^10+ paths) ----------------

FCS_BASE_SOURCE = """\
global int mode = 0;
global int faults = 0;
global int panel = 0;

proc sensor_vote(int s1, int s2, int s3) {
    int v = 0;
    if (s1 > 0) {
        v = v + 1;
    }
    if (s2 > 0) {
        v = v + 1;
    }
    if (s3 > 0) {
        v = v + 1;
    }
    if (v >= 2) {
        return 1;
    }
    return 0;
}

proc escalate(int level, int limit) {
    if (level > limit) {
        faults = faults + 1;
        return limit;
    }
    return level;
}

proc control(int a1, int a2, int a3, int b1, int b2, int b3, int c1, int c2, int c3, int lvl, int t) {
    int pitch = 0;
    int roll = 0;
    int yaw = 0;
    int cap = 0;
    pitch = sensor_vote(a1, a2, a3);
    roll = sensor_vote(b1, b2, b3);
    yaw = sensor_vote(c1, c2, c3);
    mode = pitch + roll + yaw;
    cap = escalate(lvl, 100);
    if (t > 0) {
        panel = mode + cap;
    } else {
        panel = 0 - cap;
    }
}
"""

_FCS_EDITS = [
    (
        "v1",
        [("v >= 2", "v >= 1")],
        1,
        "callee-only: majority vote relaxes to any-one in sensor_vote "
        "(hits all three call sites)",
    ),
    (
        "v2",
        [("level > limit", "level >= limit")],
        1,
        "callee-only: escalate limiter comparison widens",
    ),
    (
        "v3",
        [("panel = mode + cap;", "panel = mode + cap + 1;")],
        1,
        "caller-only: panel code changes; all callee summaries stay valid",
    ),
    (
        "v4",
        [("faults = faults + 1;", "faults = faults + 2;")],
        1,
        "callee-only: escalate fault accounting changes "
        "(sensor_vote splices untouched)",
    ),
    (
        "v5",
        [],
        0,
        "revert to base",
    ),
    (
        "v6",
        [("mode = pitch + roll + yaw;", "mode = pitch + roll + yaw + faults;")],
        1,
        "caller-only: mode aggregation reads the fault counter",
    ),
    (
        "v7",
        [("if (s2 > 0)", "if (s2 >= 0)")],
        1,
        "callee-only: one sensor comparison flips in sensor_vote",
    ),
    (
        "v8",
        [
            ("v >= 2", "v >= 1"),
            ("panel = mode + cap;", "panel = mode + cap + 1;"),
        ],
        2,
        "mixed: sensor_vote relaxation (v1) plus the caller panel edit (v3)",
    ),
]

FCS_ARTIFACT = Artifact(
    name="FCS",
    procedure_name="control",
    base_source=FCS_BASE_SOURCE,
    versions=_versions(FCS_BASE_SOURCE, _FCS_EDITS),
    description="three-procedure flight-control selector, 2^10+ paths",
)


def asw_calls_artifact() -> Artifact:
    return ASW_CALLS_ARTIFACT


def fcs_artifact() -> Artifact:
    return FCS_ARTIFACT


def interproc_artifacts():
    """The multi-procedure artifacts, in benchmark order."""
    return [ASW_CALLS_ARTIFACT, FCS_ARTIFACT]
