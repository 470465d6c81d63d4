"""One benchmark pass in a fresh interpreter (started by ``run.py``).

The term intern table and the simplify memo are process-global, so every
pass runs in a new process: one thread, ``workers=1``, each version started
when the previous one returned.  Usage (``run.py`` builds the argument)::

    python3 perfbench/child.py '{"mode": "pass", "workload": ..., ...}'

Modes:

* ``pass`` -- set up, run every history of the workload once, check every
  output against ``reference.json`` and print one JSON line;
* ``setup`` -- set up exactly as a pass does, print the set-up time, exit;
* ``build-store`` -- write the pristine summary stores ``store-resume``
  starts from (a warm history per artifact in recorded order).
"""

from __future__ import annotations

import functools
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from itertools import zip_longest
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
from histories import histories, import_program, pair_key, version_key  # noqa: E402

WORKLOADS = ("history-warm", "pairs-cold", "store-resume")
#: Histories each workload runs.  ``store-resume`` leaves out FCS: its 27 MB
#: store alone takes about 31 s of a 39 s pass, which would leave one pass
#: per run (see README.md).
ARTIFACTS = {
    "history-warm": None,
    "pairs-cold": None,
    "store-resume": ("ASW", "WBS", "OAE", "ASW-CALLS"),
}


#: The speed probe's time at the reference speed: about its fastest time on
#: the 2-vCPU x86-64 container the benchmark was tuned on.
REFERENCE_PROBE_S = 1.5e-3
_PROBE_TABLE = {i: 7 * i for i in range(1024)}


def speed_factor() -> float:
    """Reference speed over the host's current speed, from a fixed loop.

    The loop takes the best of three short rounds, so one interrupt does not
    count.  It allocates no container objects, so it never sets off the
    garbage collector on the program's heap.
    """
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        table, total = _PROBE_TABLE, 0
        for i in range(20000):
            total ^= table[i & 1023] + i
        best = min(best, perf_counter() - start)
    return REFERENCE_PROBE_S / best


class LatencyTimers:
    """The only wrappers an untraced pass installs.

    One times each ``DiSE.run`` call, the other each ``SymbolicExecutor.run``
    call made outside a DiSE run (the full symbolic-execution leg).  After
    the clock stops, each call's output counts are recorded for the check
    against the reference, and the host's speed is probed.

    The host's speed drifts by up to half over seconds to minutes, so every
    time is scaled to the reference speed: the stretch of the pass since the
    previous probe, and the call that ends it, by the probe that follows.
    ``wall`` sums the scaled stretches, ``raw_wall`` the measured ones; the
    check and the probes are in neither.
    """

    def __init__(self, ledger=None):
        self.ledger = ledger
        #: (kind, scaled milliseconds, output counts, completeness) per timed call.
        self.records = []
        self.wall = 0.0
        self.raw_wall = 0.0
        self._mark = perf_counter()
        self._depth = 0

    def install(self) -> None:
        from repro.core.dise import DiSE
        from repro.symexec.engine import SymbolicExecutor

        DiSE.run = self._timed(DiSE.run, "dise", lambda result: result.execution)
        SymbolicExecutor.run = self._timed(SymbolicExecutor.run, "full", lambda result: result)

    def start(self) -> None:
        self._mark = perf_counter()

    def _timed(self, function, kind, execution_of):
        ledger = self.ledger

        @functools.wraps(function)
        def timed(*args, **kwargs):
            if self._depth:
                return function(*args, **kwargs)
            self._depth += 1
            try:
                with ledger.frame(f"bench.{kind}", function.__qualname__) if ledger else nullcontext():
                    start = perf_counter()
                    result = function(*args, **kwargs)
                    end = perf_counter()
            finally:
                self._depth -= 1
            execution = execution_of(result)
            with ledger.frame("bench.check", "check") if ledger else nullcontext():
                counts = reference.output_counts(execution.summary)
            factor = self.stop(end)
            self.records.append(
                (kind, (end - start) * 1e3 * factor, counts, execution.statistics.completeness)
            )
            return result

        return timed

    def stop(self, end: float) -> float:
        """Close the stretch that ended at ``end``; returns its speed factor."""
        with self.ledger.frame("bench.probe", "probe") if self.ledger else nullcontext():
            factor = speed_factor()
        self.raw_wall += end - self._mark
        self.wall += (end - self._mark) * factor
        self._mark = perf_counter()
        return factor


def expected_calls(artifact, seeded: bool):
    """The timed calls one history makes: ``(kind, reference key, version index)``."""
    names = [name for name, _, _, _ in artifact.history()]
    calls = []
    if seeded:
        # The warm runner's seed leg: full symbolic execution of the base.
        calls.append(("full", version_key(artifact.name, names[0]), 0))
    for index, (previous, name) in enumerate(zip(names, names[1:])):
        calls.append(("dise", pair_key(artifact.name, previous, name), index))
        calls.append(("full", version_key(artifact.name, name), index))
    return calls


def failed_versions(calls, records, expected) -> set:
    """Indices of versions whose output mismatched, is missing or degraded."""
    failed = set()
    for call, record in zip_longest(calls, records):
        if call is None:
            failed.add(0)
            continue
        kind, key, index = call
        if record is None or record[0] != kind:
            failed.add(index)
        elif record[2] != expected[kind].get(key) or record[3] != "complete":
            failed.add(index)
    return failed


def run_history(artifact, store_path=None) -> int:
    """Run one history warm; returns the store's skipped entries."""
    from repro.evolution.history import VersionHistoryRunner

    report = VersionHistoryRunner(
        artifact, include_full=True, workers=1, store_path=store_path
    ).run()
    return report.cache.get("store_skipped", 0)


def run_pairs(artifact) -> None:
    """Each adjacent pair cold: parse both, DiSE, then full execution."""
    from repro.core.dise import DiSE
    from repro.lang import parser
    from repro.solver.core import ConstraintSolver
    from repro.symexec import engine

    history = artifact.history()
    for (_, _, _, base_source), (_, _, _, modified_source) in zip(history, history[1:]):
        base = parser.parse_program(base_source)
        modified = parser.parse_program(modified_source)
        DiSE(
            base, modified, procedure_name=artifact.procedure_name, solver=ConstraintSolver()
        ).run()
        engine.symbolic_execute(
            modified, procedure_name=artifact.procedure_name, solver=ConstraintSolver()
        )


def place_stores(pristine: str, work: str) -> None:
    """Copy the pristine stores byte-identical into an empty work directory."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    for name in sorted(os.listdir(pristine)):
        shutil.copyfile(os.path.join(pristine, name), os.path.join(work, name))


def build_store(directory: str) -> None:
    from repro.evolution.history import VersionHistoryRunner

    staging = directory + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    for artifact in histories(0, 0, ARTIFACTS["store-resume"]):
        VersionHistoryRunner(
            artifact, workers=1, store_path=os.path.join(staging, f"{artifact.name}.jsonl")
        ).run()
    for name in os.listdir(staging):
        if not name.endswith(".jsonl"):
            os.remove(os.path.join(staging, name))
    os.replace(staging, directory)


def run_pass(args: dict) -> dict:
    workload = args["workload"]
    import_program()
    import repro  # noqa: F401  (imports are part of set-up)

    ledger = None
    if args.get("trace"):
        from ledger import Ledger

        ledger = Ledger()
        ledger.install()
    timers = LatencyTimers(ledger)
    timers.install()
    ordered = histories(args["seed"], args["pass"], ARTIFACTS[workload])
    expected = reference.load()
    if workload == "store-resume":
        place_stores(args["pristine"], args["work"])
    setup_seconds = (time.time() - args["spawned"]) * speed_factor()
    if args["mode"] == "setup":
        return {"setup_s": setup_seconds}

    attempted = 0
    failed = 0
    failures = []
    timers.start()
    for artifact in ordered:
        first = len(timers.records)
        skipped = 0
        try:
            if workload == "pairs-cold":
                run_pairs(artifact)
            elif workload == "store-resume":
                skipped = run_history(artifact, os.path.join(args["work"], f"{artifact.name}.jsonl"))
            else:
                run_history(artifact)
        except Exception:
            traceback.print_exc()
            failures.append(f"{artifact.name}: raised")
        versions = len(artifact.versions)
        bad = failed_versions(
            expected_calls(artifact, seeded=workload != "pairs-cold"),
            timers.records[first:],
            expected,
        )
        if skipped:
            failures.append(f"{artifact.name}: store skipped {skipped} entries")
            bad = set(range(versions))
        if bad:
            failures.append(f"{artifact.name}: versions {sorted(bad)} failed")
        attempted += versions
        failed += len(bad)
    timers.stop(perf_counter())

    result = {
        "setup_s": setup_seconds,
        "wall_s": timers.wall,
        "raw_wall_s": timers.raw_wall,
        "dise_ms": [ms for kind, ms, _, _ in timers.records if kind == "dise"],
        "full_ms": [ms for kind, ms, _, _ in timers.records if kind == "full"],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if ledger is not None:
        ledger.uninstall()
        result["layers"] = ledger.metrics(timers.raw_wall)
        result["attributed_s"] = ledger.attributed_seconds()
        result["layer_calls"] = dict(ledger.calls)
        result["function_calls"] = dict(ledger.function_calls)
        if args.get("chrome_trace"):
            ledger.write_chrome_trace(args["chrome_trace"])
    return result


def main() -> None:
    args = json.loads(sys.argv[1])
    if args["mode"] == "build-store":
        import_program()
        build_store(args["pristine"])
        return
    print(json.dumps(run_pass(args)))


if __name__ == "__main__":
    main()
