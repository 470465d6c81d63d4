"""DiSE version-history benchmark: fresh-process passes over five artifact histories.

Usage (from the repository root)::

    python3 perfbench/run.py --workload history-warm --seed 0 --seconds 40 --trace 0

Each pass runs in a fresh interpreter (``child.py``): one process, one
thread, ``workers=1``, a closed loop where every version starts when the
previous one returned.  Passes repeat until ``--seconds`` have elapsed
(always at least one).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced pass and then traced passes, and reports the
per-layer ledger.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from child import WORKLOADS  # noqa: E402
from histories import ROOT, SRC, import_program  # noqa: E402

OUT = os.path.join(HERE, "_out")
#: Set-up-only processes per run, besides the set-up of every pass.
SETUP_PROBES = 4
#: A run never starts a pass that would be unlikely to end by this time.
RUN_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("dise_mean_ms", "ms"),
    ("dise_p80_ms", "ms"),
    ("full_mean_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


#: Per-workload expectations the traced run checks (see README.md):
#: layers whose wrapped calls must all be zero, or all non-zero.
ALWAYS = [
    "lang.parse", "cfg.build", "cfg.region_hash", "diff", "core.affected",
    "core.lookahead", "symexec.engine", "solver.context", "solver.check",
]
EXPECT_CALLS = {
    "history-warm": (
        ALWAYS + ["symexec.cache", "symexec.distinct_pcs", "evolution.glue"],
        ["store.load", "store.dump"],
    ),
    "pairs-cold": (
        ALWAYS,
        ["symexec.cache", "symexec.distinct_pcs", "evolution.glue", "store.load", "store.dump"],
    ),
    "store-resume": (
        ALWAYS + ["symexec.cache", "symexec.distinct_pcs", "evolution.glue",
                  "store.load", "store.dump"],
        [],
    ),
}
#: Store counters that must be zero outside store-resume (and skips everywhere).
STORE_COUNTS = ["store.bytes", "store.loaded_entries"]


def layer_unit(name: str) -> str:
    if name.endswith(("_ratio", "_share", "_overhead")):
        return "ratio"
    if name.endswith("_s") or name == "diff.s":
        return "s"
    return "bytes" if name == "store.bytes" else "count"


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (q in (0, 100)).

    A weighted mean of all order statistics with Beta((n+1)p, (n+1)(1-p))
    weights.  DiSE latencies cluster by artifact with gaps between the
    clusters, and a single order statistic jumps across a gap when the
    version order changes; the weighted mean moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    p = q / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 50 * n
    # Midpoint-rule integral of the Beta density over each (i/n, (i+1)/n].
    weights = [0.0] * n
    for step in range(steps):
        x = (step + 0.5) / steps
        density = math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights[step * n // steps] += density / steps
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def source_digest() -> str:
    """Content hash of the program source, keying the pristine store."""
    digest = hashlib.blake2b(digest_size=8)
    for directory, subdirs, files in os.walk(SRC):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def spawn(args: dict) -> dict:
    """Run one child process to completion and return its JSON result."""
    args = dict(args, spawned=time.time())
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(args)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
        check=True,
        text=True,
    )
    if args["mode"] == "build-store":
        return {}
    return json.loads(completed.stdout.strip().splitlines()[-1])


def pristine_store() -> str:
    """The pristine stores for this source tree, built once per checkout."""
    directory = os.path.join(OUT, f"pristine-{source_digest()}")
    if not os.path.isdir(directory):
        os.makedirs(OUT, exist_ok=True)
        started = time.perf_counter()
        spawn({"mode": "build-store", "pristine": directory})
        print(f"built pristine stores in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return directory


def passes(base: dict, seconds: float, modes) -> list:
    """Rounds of passes until about ``seconds`` have elapsed (at least one).

    Round ``k`` runs one pass per entry of ``modes`` (``False`` untraced,
    ``True`` traced), all on the pass-``k`` version order.  Another round
    starts while half a typical round still fits in ``seconds``.
    """
    started = time.perf_counter()
    rounds = []
    durations = []
    while True:
        elapsed = time.perf_counter() - started
        if rounds:
            typical = statistics.median(durations)
            if elapsed + typical / 2 > seconds or elapsed + typical > RUN_LIMIT_S:
                return rounds
        begun = time.perf_counter()
        round_results = []
        for traced in modes:
            result = spawn(dict(base, mode="pass", trace=traced, **{"pass": len(rounds)}))
            round_results.append(result)
            print(
                f"pass {len(rounds)}{' traced' if traced else ''}: "
                f"wall_s {result['wall_s']:.3f} (measured {result['raw_wall_s']:.3f}), "
                f"setup_s {result['setup_s']:.3f}",
                file=sys.stderr,
            )
        rounds.append(round_results)
        durations.append(time.perf_counter() - begun)


def end_to_end(results: list, setups: list) -> dict:
    dise = [ms for result in results for ms in result["dise_ms"]]
    full = [ms for result in results for ms in result["full_ms"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(result["wall_s"] for result in results),
        "dise_mean_ms": statistics.fmean(dise),
        "dise_p80_ms": percentile(dise, 80),
        "full_mean_ms": statistics.fmean(full),
        "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in results),
    }


def layer_problems(workload: str, traced: list) -> list:
    """Violations of the traced run's per-workload expectations."""
    problems = []
    nonzero, zero = EXPECT_CALLS[workload]
    for result in traced:
        calls = result["layer_calls"]
        layers = result["layers"]
        problems += [f"{layer}: no calls" for layer in nonzero if not calls.get(layer)]
        problems += [f"{layer}: {calls[layer]} calls" for layer in zero if calls.get(layer)]
        if workload != "store-resume":
            problems += [f"{name} = {layers[name]}" for name in STORE_COUNTS if layers[name]]
        if layers["store.skipped_entries"]:
            problems.append(f"store.skipped_entries = {layers['store.skipped_entries']}")
        if result["attributed_s"] > result["raw_wall_s"]:
            problems.append("attributed self time exceeds the measured wall time")
    return problems


def print_layers(workload: str, metrics: dict) -> None:
    print(f"per-layer ledger, workload {workload} (median of traced passes):")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {layer_unit(name)}")


def main(argv=None) -> int:
    import_program()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)

    base = {"workload": options.workload, "seed": options.seed}
    if options.workload == "store-resume":
        base["pristine"] = pristine_store()
        base["work"] = os.path.join(OUT, "work")

    if options.trace:
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"{options.workload}-seed{options.seed}.trace.json")
        rounds = passes(dict(base, chrome_trace=trace_path), options.seconds, (False, True))
        results = [result for round_results in rounds for result in round_results]
        traced = [traced for _, traced in rounds]
        metrics = {
            name: statistics.median(result["layers"][name] for result in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace_overhead"] = statistics.median(
            traced["wall_s"] / untraced["wall_s"] for untraced, traced in rounds
        )
        problems = layer_problems(options.workload, traced)
        print_layers(options.workload, metrics)
        print(f"chrome trace: {os.path.relpath(trace_path, ROOT)}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        setups = [
            spawn(dict(base, mode="setup", trace=False, **{"pass": 0}))["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        results = [result for (result,) in passes(base, options.seconds, (False,))]
        setups += [result["setup_s"] for result in results]
        metrics = end_to_end(results, setups)
        units = dict(END_TO_END)
        problems = []
        print(f"workload {options.workload}, seed {options.seed}: {len(results)} passes")
        for name, unit in END_TO_END:
            print(f"  {name:14s} {metrics[name]:12.4f} {unit}")

    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    problems += [failure for result in results for failure in result["failures"]]
    print(f"  failed_share   {failed / attempted:12.4f} ratio ({failed} of {attempted} versions)")
    for problem in problems:
        print(f"  problem: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
