"""Crash-safe store under chaos: torn writes at every offset, concurrent writers."""

import multiprocessing
import os

from repro import faults
from repro.artifacts.simple import update_base_program, update_modified_program
from repro.lang.parser import parse_program
from repro.parallel.store import PersistentSummaryStore
from repro.symexec.engine import symbolic_execute
from repro.symexec.summary_cache import SummaryCache

TINY_SOURCE = """
global int r = 0;
proc tiny(int a, int b) {
    if (a > 0) { r = 1; } else { r = 2; }
    if (b > 0) { r = r + 10; } else { r = r + 20; }
}
"""


def _record_cache(program, procedure_name):
    cache = SummaryCache()
    symbolic_execute(program, procedure_name=procedure_name, summary_cache=cache)
    assert len(cache) > 0
    return cache


class TestTornWrites:
    def test_truncation_at_every_byte_offset_never_raises_never_adopts_corrupt(
        self, tmp_path
    ):
        """The exhaustive property behind crash safety: a store torn at ANY
        byte offset loads without raising, adopts only entries whose
        checksums verify, and counts every casualty."""
        cache = _record_cache(parse_program(TINY_SOURCE), "tiny")
        store = PersistentSummaryStore(str(tmp_path / "store.json"))
        dumped = store.dump(cache)
        assert dumped > 0
        original = store.checksums()
        assert original is not None and len(original) == dumped
        with open(store.path, "rb") as handle:
            data = handle.read()

        torn_path = str(tmp_path / "torn.json")
        torn = PersistentSummaryStore(torn_path)
        for offset in range(len(data) + 1):
            with open(torn_path, "wb") as handle:
                handle.write(data[:offset])
            fresh = SummaryCache()
            adopted = torn.load_into(fresh)  # must never raise
            assert 0 <= adopted <= dumped
            assert len(fresh) == adopted
            salvaged = torn.checksums()
            if salvaged is not None:
                # Whatever survived the tear is a subset of what was written
                # -- a corrupt line is skipped, never adopted as something new.
                assert salvaged <= original
            # A full-length copy must salvage everything.
            if offset == len(data):
                assert adopted == dumped
                assert torn.skipped_entries == 0

    def test_injected_torn_write_salvages_intact_prefix(self, tmp_path):
        """The torn-store-write fault site end to end: dump under a
        certain-tear schedule, then load what physically survived."""
        cache = _record_cache(update_modified_program(), "update")
        store = PersistentSummaryStore(str(tmp_path / "store.json"))
        with faults.injected(faults.parse_spec("seed:6,torn:1.0")):
            dumped = store.dump(cache)
        assert dumped > 0
        on_disk = os.path.getsize(store.path)
        fresh = SummaryCache()
        adopted = store.load_into(fresh)  # never raises, whatever the tear left
        assert 0 <= adopted <= dumped
        salvageable = store.checksums()
        if salvageable is None:
            assert adopted == 0
        else:
            assert adopted == len(salvageable)
        # A clean re-dump from the surviving cache heals the store.
        healed = store.dump(cache)
        assert healed == dumped
        assert os.path.getsize(store.path) > on_disk or adopted == dumped


def _dump_worker(path, which):
    program = update_base_program() if which == "base" else update_modified_program()
    cache = _record_cache(program, "update")
    PersistentSummaryStore(path).dump(cache)


class TestConcurrentWriters:
    def test_sequential_dumps_union_instead_of_clobbering(self, tmp_path):
        base_cache = _record_cache(update_base_program(), "update")
        modified_cache = _record_cache(update_modified_program(), "update")

        only_base = PersistentSummaryStore(str(tmp_path / "base.json"))
        only_base.dump(base_cache)
        only_modified = PersistentSummaryStore(str(tmp_path / "modified.json"))
        only_modified.dump(modified_cache)

        shared = PersistentSummaryStore(str(tmp_path / "shared.json"))
        shared.dump(base_cache)
        shared.dump(modified_cache)
        assert shared.checksums() == only_base.checksums() | only_modified.checksums()

    def test_two_concurrent_processes_lose_zero_entries(self, tmp_path):
        """Two live processes dumping to one path: the lock-merge-publish
        sequence must union their entries -- last-writer clobbering would
        silently lose one process's whole corpus."""
        shared_path = str(tmp_path / "shared.json")
        workers = [
            multiprocessing.Process(target=_dump_worker, args=(shared_path, which))
            for which in ("base", "modified")
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0

        only_base = PersistentSummaryStore(str(tmp_path / "base.json"))
        only_base.dump(_record_cache(update_base_program(), "update"))
        only_modified = PersistentSummaryStore(str(tmp_path / "modified.json"))
        only_modified.dump(_record_cache(update_modified_program(), "update"))

        final = PersistentSummaryStore(shared_path).checksums()
        expected = only_base.checksums() | only_modified.checksums()
        assert final is not None
        assert final >= expected, (
            f"concurrent dump lost {len(expected - final)} entries"
        )


class TestFaultHygiene:
    def test_faulted_rerun_keeps_the_clean_runs_entries(self, tmp_path):
        """A rerun under corrupt frames appends its damaged entries after
        the clean run's records and never rewrites them."""
        from repro.artifacts import wbs_artifact
        from repro.evolution.history import VersionHistoryRunner

        store_path = str(tmp_path / "store.json")
        # Directed legs only, so the full legs of the rerun record new entries.
        VersionHistoryRunner(wbs_artifact(), include_full=False, store_path=store_path).run()
        clean = PersistentSummaryStore(store_path).checksums()
        assert clean

        with faults.injected(faults.parse_spec("seed:6,corrupt:0.5")):
            VersionHistoryRunner(wbs_artifact(), store_path=store_path).run()
        reader = PersistentSummaryStore(store_path)
        assert reader.checksums() >= clean
        assert reader.load_into(SummaryCache()) >= len(clean)
        assert reader.skipped_entries > 0
