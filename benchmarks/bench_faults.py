"""Concurrent-writer benchmark for the summary store (ours, not a paper table).

One leg, written to ``BENCH_faults.json``:

* **concurrent_store** -- two live processes dumping independent summary
  corpora to one :class:`~repro.parallel.store.PersistentSummaryStore`
  path.  Gated on ``lost_entries == 0``: the lock-merge-publish sequence
  must union the corpora, where last-writer-wins clobbering would silently
  drop one process's entries.

Torn writes and corrupt frames are covered by the chaos tests under
``tests/chaos/``.
"""

import json
import multiprocessing
import os

from repro.artifacts.simple import update_base_program, update_modified_program
from repro.parallel.store import PersistentSummaryStore
from repro.symexec.engine import symbolic_execute
from repro.symexec.summary_cache import SummaryCache

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "BENCH_faults.json")
STORE_DIR = os.path.join(os.path.dirname(__file__), "results", "faults_store")


def _store_writer(path, which):
    program = update_base_program() if which == "base" else update_modified_program()
    cache = SummaryCache()
    symbolic_execute(program, procedure_name="update", summary_cache=cache)
    PersistentSummaryStore(path).dump(cache)


def _concurrent_store_leg():
    os.makedirs(STORE_DIR, exist_ok=True)
    shared_path = os.path.join(STORE_DIR, "concurrent_store.json")
    if os.path.exists(shared_path):
        os.unlink(shared_path)
    writers = [
        multiprocessing.Process(target=_store_writer, args=(shared_path, which))
        for which in ("base", "modified")
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=120)

    # What each writer would have produced alone, for the union oracle.
    expected = set()
    for which in ("base", "modified"):
        solo_path = os.path.join(STORE_DIR, f"solo_{which}.json")
        if os.path.exists(solo_path):
            os.unlink(solo_path)
        _store_writer(solo_path, which)
        expected |= PersistentSummaryStore(solo_path).checksums() or set()

    final = PersistentSummaryStore(shared_path).checksums() or set()
    return {
        "writers": len(writers),
        "writer_exitcodes": [writer.exitcode for writer in writers],
        "expected_entries": len(expected),
        "final_entries": len(final),
        "lost_entries": len(expected - final),
    }


def run_faults_benchmarks():
    report = {"concurrent_store": _concurrent_store_leg()}
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def test_faults_benchmark(run_once):
    report = run_once(run_faults_benchmarks)
    print()
    store = report["concurrent_store"]
    print(
        f"concurrent store lost {store['lost_entries']} of "
        f"{store['expected_entries']} entries"
    )
    assert store["writer_exitcodes"] == [0, 0]
    assert store["lost_entries"] == 0, "concurrent dumps lost entries"
    assert os.path.exists(RESULTS_PATH)


if __name__ == "__main__":
    print(json.dumps(run_faults_benchmarks(), indent=2, sort_keys=True))
