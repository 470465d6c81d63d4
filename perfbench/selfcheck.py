"""The benchmark's own tests.

    python3 perfbench/selfcheck.py    # unit checks, then one traced pass per workload

The traced passes check the ledger's wrappers:

- every wrapper records calls on the workload meant to exercise it;
- the summary cache, ``evolution`` and every store counter stay at 0 where
  the README says so;
- Σ self time stays within the pass's measured wall time.

A wrapper bound to a module attribute that the program reaches through a
stale ``from ... import`` name would record no calls and fail here.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import histories  # noqa: E402
import ledger  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

#: Wrappers whose calls only a store-resume pass makes; every other wrapper
#: must record calls on history-warm.
STORE_WRAPPERS = {
    "PersistentSummaryStore.load_into",
    "PersistentSummaryStore.load_cost_model_into",
    "PersistentSummaryStore.dump",
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def wrapper_names():
    names = [f"{module}.{attr}" for pairs in ledger.FUNCTIONS.values() for module, attr in pairs]
    names += [f"{cls}.{attr}" for triples in ledger.METHODS.values() for _, cls, attr in triples]
    return names


def unit_checks() -> None:
    # Percentiles: exact on constant and symmetric samples, ordered otherwise.
    check(abs(run.percentile([4.0] * 7, 50) - 4.0) < 1e-9, "percentile of a constant")
    check(abs(run.percentile([1.0, 2.0, 3.0], 50) - 2.0) < 1e-9, "median of 1, 2, 3")
    samples = [float(value) for value in range(1, 101)]
    check(run.percentile(samples, 50) < run.percentile(samples, 80), "p50 < p80")

    # Seeds: 0 is the recorded order; others permute deterministically per pass.
    recorded = histories.histories(0, 3)
    check(
        [a.versions for a in recorded] == [a.versions for a in histories.artifacts()],
        "seed 0 keeps the recorded order",
    )
    first = histories.histories(5, 0)
    check(
        [a.versions for a in first] == [a.versions for a in histories.histories(5, 0)],
        "same seed and pass give the same inputs",
    )
    check(
        [a.versions for a in first] != [a.versions for a in histories.histories(5, 1)],
        "another pass gets another order",
    )
    for permuted, original in zip(first, recorded):
        check(
            sorted(v.name for v in permuted.versions) == sorted(v.name for v in original.versions),
            f"{original.name}: a seed permutes the versions",
        )

    # The reference covers every pair and version any seed can produce.
    expected = reference.load()
    for artifact in histories.artifacts():
        names = [name for name, _, _, _ in artifact.history()]
        for base in names:
            check(histories.version_key(artifact.name, base) in expected["full"], base)
            for modified in names[1:]:
                if modified != base:
                    key = histories.pair_key(artifact.name, base, modified)
                    check(key in expected["dise"], f"reference lacks {key}")

    # The output check flags mismatches, missing legs and degraded runs.
    artifact = histories.artifacts()[0]
    calls = child.expected_calls(artifact, seeded=True)
    good = [
        (kind, 1.0, expected[kind][key], "complete") for kind, key, _ in calls
    ]
    check(child.failed_versions(calls, good, expected) == set(), "exact outputs pass")
    wrong = list(good)
    kind, _, counts, status = wrong[3]
    wrong[3] = (kind, 1.0, [counts[0] + 1, counts[1]], status)
    check(child.failed_versions(calls, wrong, expected) == {calls[3][2]}, "a mismatch fails")
    degraded = list(good)
    degraded[1] = good[1][:3] + ("degraded",)
    check(child.failed_versions(calls, degraded, expected) == {0}, "degraded fails")
    check(
        child.failed_versions(calls, good[:-2], expected) == {calls[-1][2]},
        "a missing leg fails",
    )
    print("unit checks passed")


def traced_checks() -> None:
    calls_by_workload = {}
    for workload in child.WORKLOADS:
        base = {"workload": workload, "seed": 1}
        if workload == "store-resume":
            base["pristine"] = run.pristine_store()
            base["work"] = os.path.join(run.OUT, "work")
        trace_path = os.path.join(run.OUT, f"selfcheck-{workload}.trace.json")
        os.makedirs(run.OUT, exist_ok=True)
        [(result,)] = run.passes(dict(base, chrome_trace=trace_path), 0, (True,))
        problems = run.layer_problems(workload, [result]) + result["failures"]
        check(not problems and result["failed"] == 0, f"{workload}: {problems}")
        with open(trace_path) as handle:
            events = json.load(handle)["traceEvents"]
        check(any(event.get("ph") == "X" for event in events), f"{workload}: empty trace")
        calls_by_workload[workload] = result["function_calls"]
        unattributed = result["layers"]["unattributed_share"]
        print(f"{workload}: traced pass ok, unattributed share {unattributed:.3f}")

    for name in wrapper_names():
        workload = "store-resume" if name in STORE_WRAPPERS else "history-warm"
        count = calls_by_workload[workload].get(name, 0)
        check(count > 0, f"wrapper {name} recorded no calls on {workload}")
    print("traced checks passed")


def main() -> None:
    histories.import_program()
    unit_checks()
    traced_checks()


if __name__ == "__main__":
    main()
