"""Persistent summary store: dump/load round trips, resilience, versioning."""

import hashlib
import json
import multiprocessing
import os

import pytest

from repro.artifacts.simple import update_base_program, update_modified_program
from repro.parallel.store import STORE_FORMAT, PersistentSummaryStore
from repro.solver.terms import interned_count
from repro.symexec.engine import symbolic_execute
from repro.symexec.summary_cache import SummaryCache

from tests.parallel.test_serialize import assert_terms_released


def _record_cache(program):
    cache = SummaryCache()
    result = symbolic_execute(program, procedure_name="update", summary_cache=cache)
    assert len(cache) > 0
    return cache, result


def test_dump_and_load_round_trip(tmp_path):
    program = update_modified_program()
    cache, cold = _record_cache(program)
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    dumped = store.dump(cache)
    assert dumped > 0
    assert store.exists()
    assert store.entry_count() == dumped
    cold_pcs = sorted(str(c) for c in cold.summary.distinct_path_conditions())

    # Fresh lifetime: the recorded terms die, new cache, same disk file.
    live = interned_count()
    del cache, cold
    assert_terms_released(live)
    warm_cache = SummaryCache()
    loaded = store.load_into(warm_cache)
    assert loaded == dumped
    assert store.skipped_entries == 0
    assert warm_cache.statistics.adopted == loaded

    warm = symbolic_execute(program, procedure_name="update", summary_cache=warm_cache)
    assert warm.statistics.summary_cache_hits > 0
    assert warm.statistics.replayed_paths > 0
    assert sorted(str(c) for c in warm.summary.distinct_path_conditions()) == cold_pcs


def test_load_is_idempotent_and_first_in_wins(tmp_path):
    program = update_modified_program()
    cache, _ = _record_cache(program)
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    dumped = store.dump(cache)

    target = SummaryCache()
    assert store.load_into(target) == dumped
    # Loading again adds nothing: every key is already present.
    assert store.load_into(target) == 0
    assert len(target) == dumped


def test_missing_file_loads_nothing(tmp_path):
    store = PersistentSummaryStore(str(tmp_path / "absent.json"))
    cache = SummaryCache()
    assert not store.exists()
    assert store.load_into(cache) == 0
    assert store.entry_count() is None


def test_corrupt_file_is_ignored(tmp_path):
    path = tmp_path / "corrupt.json"
    path.write_text("{ this is not json", encoding="utf-8")
    cache = SummaryCache()
    assert PersistentSummaryStore(str(path)).load_into(cache) == 0
    assert len(cache) == 0


def test_unknown_format_is_ignored(tmp_path):
    """A newer format, format 6, which wrote segment summaries in a layout
    of their own, and format 5, whose files may hold the generalised call
    entries no reader decodes any more, are refused whole.  So is a real
    format-7 file, whose checksummed ``["c", state]`` cost-model line format
    8 dropped: it loads nothing, counts nothing as skipped, and the next
    dump replaces it with a format-8 file."""
    program = update_modified_program()
    cache, _ = _record_cache(program)
    for fmt in (STORE_FORMAT + 1, 6, 5):
        store = PersistentSummaryStore(str(tmp_path / f"store-{fmt}.json"))
        store.dump(cache)

        with open(store.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        lines[0] = json.dumps({"format": fmt})
        with open(store.path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

        fresh = SummaryCache()
        assert store.load_into(fresh) == 0
        assert store.skipped_entries == 0
        assert store.entry_count() is None

    # A format-7 dump wrote its header, then the state line, then the term
    # and entry records of the layout format 8 keeps.
    store = PersistentSummaryStore(str(tmp_path / "store-7.json"))
    store.dump(cache)
    with open(store.path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    state = {"version": 1, "fence_seconds": 0.003, "digest_seconds": {"digest-a": 0.2}}
    payload = json.dumps(["c", state], separators=(",", ":"))
    lines[:1] = ['{"format":7}', hashlib.sha256(payload.encode()).hexdigest() + " " + payload]
    _rewrite(store.path, lines)
    assert store.load_into(SummaryCache()) == 0
    assert store.skipped_entries == 0
    assert store.entry_count() is None

    dumped = store.dump(cache)
    with open(store.path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert lines[0] == '{"format":8}'
    assert not any(line[65:70] == '["c",' for line in lines)
    reader = PersistentSummaryStore(store.path)
    assert reader.load_into(SummaryCache()) == dumped
    assert reader.skipped_entries == 0


def test_malformed_entries_are_skipped_not_fatal(tmp_path):
    program = update_modified_program()
    cache, _ = _record_cache(program)
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    dumped = store.dump(cache)

    with open(store.path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    # Corrupt one entry record: its payload no longer matches its checksum.
    index = _entry_line_indexes(lines)[0]
    lines[index] = lines[index].replace('["e",', '["E",', 1)
    with open(store.path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    fresh = SummaryCache()
    assert store.load_into(fresh) == dumped - 1
    assert store.skipped_entries == 1
    assert store.entry_count() == dumped - 1


def test_dump_creates_parent_directories(tmp_path):
    program = update_modified_program()
    cache, _ = _record_cache(program)
    nested = tmp_path / "a" / "b" / "store.json"
    store = PersistentSummaryStore(str(nested))
    assert store.dump(cache) > 0
    assert os.path.exists(str(nested))


def _entry_line_indexes(lines):
    """Indexes of the entry records among a store file's lines."""
    return [index for index, line in enumerate(lines) if line[65:70] == '["e",']


def _rewrite(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _ignored_and_replaced(store, fmt):
    """Relabel the store as format ``fmt``: it must load nothing, skip
    nothing and never raise, and the next dump must replace it with a
    current-format file that loads completely."""
    with open(store.path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert json.loads(lines[0]) == {"format": STORE_FORMAT}
    lines[0] = json.dumps({"format": fmt})
    _rewrite(store.path, lines)

    fresh = SummaryCache()
    assert store.load_into(fresh) == 0
    assert store.skipped_entries == 0
    assert store.entry_count() is None
    assert store.checksums() is None

    cache, _ = _record_cache(update_modified_program())
    dumped = store.dump(cache)
    with open(store.path, "r", encoding="utf-8") as handle:
        assert json.loads(handle.readline()) == {"format": STORE_FORMAT}
    assert store.entry_count() == dumped
    reloaded = SummaryCache()
    assert PersistentSummaryStore(store.path).load_into(reloaded) == dumped
    return dumped


def test_format_2_store_is_ignored_and_replaced(tmp_path):
    """A format-2 file warms nothing and is replaced.  Its entries are
    suffix and segment entries, the only kinds a dump writes."""
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    cache, _ = _record_cache(update_modified_program())
    assert store.dump(cache) > 0
    assert _ignored_and_replaced(store, 2) > 0


def test_format_3_store_is_ignored_and_replaced(tmp_path):
    program = update_modified_program()
    cache, _ = _record_cache(program)
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    dumped = store.dump(cache)
    assert _ignored_and_replaced(store, 3) == dumped


@pytest.mark.parametrize(
    "first_line",
    [
        b'{"format":1}\n',
        b'{"format":4}\n',
        b'{"format":5}\n',
        b'{"format":6}\n',
        b'{"format":7}\n',
        json.dumps({"format": STORE_FORMAT + 1}).encode() + b"\n",
        json.dumps({"format": str(STORE_FORMAT)}).encode() + b"\n",
        b'{"format":null}\n',
        b"{}\n",
        json.dumps([STORE_FORMAT]).encode() + b"\n",
        b"{ not json\n",
        b"",
        None,
    ],
    ids=[
        "format-1",
        "format-4",
        "format-5",
        "format-6",
        "format-7",
        "newer-format",
        "format-as-string",
        "format-null",
        "no-format-key",
        "list-header",
        "not-json",
        "empty-header-line",
        "header-line-missing",
    ],
)
def test_a_file_without_a_current_header_is_refused_whole_and_replaced(tmp_path, first_line):
    """Whatever stands where the header should -- another format's header,
    a header of the wrong shape, no header at all -- the file warms
    nothing, counts nothing as skipped and never raises; the next dump
    replaces it with a current-format file, and every entry of that file
    loads.  ``None`` deletes the header line, so the file begins with a
    term-table record."""
    cache, _ = _record_cache(update_modified_program())
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    dumped = store.dump(cache)
    data = _read_bytes(store.path)
    records = data[data.index(b"\n") + 1 :]
    with open(store.path, "wb") as handle:
        handle.write(records if first_line is None else first_line + records)

    reader = PersistentSummaryStore(store.path)
    assert reader.load_into(SummaryCache()) == 0
    assert reader.skipped_entries == 0
    assert reader.entry_count() is None
    assert reader.checksums() is None

    assert reader.dump(cache) == dumped
    assert _read_bytes(store.path) == data
    fresh = PersistentSummaryStore(store.path)
    assert fresh.load_into(SummaryCache()) == dumped
    assert fresh.skipped_entries == 0


# -- damaged files against an independent reader -------------------------------


def _entries_by_full_scan(data):
    """``(entries, damaged lines)`` that a reader of an undamaged file cut
    short at some byte may adopt and must count: a reference reader that
    shares no code with the store.  Nothing is read without a complete
    current header; after it, each complete line is an intact record (the
    file was whole before the cut), and a partial last line is damage."""
    header = json.dumps({"format": STORE_FORMAT}, separators=(",", ":")).encode() + b"\n"
    if not data.startswith(header):
        return 0, 0
    lines = data[len(header) :].split(b"\n")
    complete, tail = lines[:-1], lines[-1]
    for line in complete:
        assert hashlib.sha256(line[65:]).hexdigest().encode() == line[:64]
    return sum(line[65:70] == b'["e",' for line in complete), int(tail != b"")


def _line_starts(data):
    """The byte offset at which each line of ``data`` begins."""
    starts = [0]
    while True:
        newline = data.find(b"\n", starts[-1])
        if newline < 0 or newline + 1 == len(data):
            return starts
        starts.append(newline + 1)


def _cut_offset(data, where):
    starts = _line_starts(data)
    kinds = [data[start + 65 : start + 70] for start in starts]
    first_entry = kinds.index(b'["e",')
    return {
        "inside-the-header": starts[1] - 2,
        "before-the-header-newline": starts[1] - 1,
        "right-after-the-header": starts[1],
        "inside-the-first-term-row": starts[1] + 70,
        "inside-the-first-entry": starts[first_entry] + 70,
        "right-after-the-first-entry": starts[first_entry + 1],
        "before-the-last-newline": len(data) - 1,
    }[where]


@pytest.mark.parametrize(
    "where",
    [
        "inside-the-header",
        "before-the-header-newline",
        "right-after-the-header",
        "inside-the-first-term-row",
        "inside-the-first-entry",
        "right-after-the-first-entry",
        "before-the-last-newline",
    ],
)
def test_a_cut_file_loads_exactly_its_intact_entries_and_a_dump_heals_it(tmp_path, where):
    """A file cut short loads exactly the entries the reference reader finds
    whole and counts its partial last line as the one casualty.  The next
    dump of the recorded cache then restores the original bytes: appended
    after the intact prefix when the header survived, a new file when it
    did not."""
    cache, _ = _record_cache(update_modified_program())
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    dumped = store.dump(cache)
    data = _read_bytes(store.path)
    cut = data[: _cut_offset(data, where)]
    with open(store.path, "wb") as handle:
        handle.write(cut)

    entries, damaged = _entries_by_full_scan(cut)
    reader = PersistentSummaryStore(store.path)
    assert reader.load_into(SummaryCache()) == entries
    assert reader.skipped_entries == damaged
    assert reader.entry_count() == (entries if cut.startswith(data[: _line_starts(data)[1]]) else None)

    assert reader.dump(cache) == dumped
    assert _read_bytes(store.path) == data
    healed = PersistentSummaryStore(store.path)
    assert healed.load_into(SummaryCache()) == dumped
    assert healed.skipped_entries == 0


@pytest.mark.parametrize("victim", ["first-term-row", "first-entry", "last-entry", "header"])
def test_every_entry_of_a_damaged_file_is_adopted_or_counted(tmp_path, victim):
    """One byte of one line is flipped.  A damaged header refuses the file
    whole; any other damaged line is counted once, and every entry is then
    either adopted or counted as undecodable -- the entries that referred to
    a lost term row fail to decode.  A dump of the recorded cache brings
    every entry back: the old records stay, the lost ones are written
    again."""
    cache, _ = _record_cache(update_modified_program())
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    dumped = store.dump(cache)
    original = store.checksums()
    with open(store.path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    index = {
        "header": 0,
        "first-term-row": 1,
        "first-entry": _entry_line_indexes(lines)[0],
        "last-entry": _entry_line_indexes(lines)[-1],
    }[victim]
    middle = len(lines[index]) // 2
    lines[index] = lines[index][:middle] + "#" + lines[index][middle + 1 :]
    _rewrite(store.path, lines)

    reader = PersistentSummaryStore(store.path)
    adopted = reader.load_into(SummaryCache())
    if victim == "header":
        assert (adopted, reader.skipped_entries) == (0, 0)
    elif victim == "first-term-row":
        assert adopted < dumped
        assert adopted + reader.skipped_entries - 1 == dumped
    else:
        assert (adopted, reader.skipped_entries) == (dumped - 1, 1)

    reader.dump(cache)
    healed = PersistentSummaryStore(store.path)
    warm = SummaryCache()
    assert healed.load_into(warm) == dumped
    assert len(warm) == len(cache)
    assert healed.checksums() >= original


@pytest.mark.parametrize("state", ["missing", "not-json", "format-7", "current"])
def test_load_cost_model_into_adopts_nothing_and_leaves_the_store_alone(tmp_path, state):
    """The stub kept for the benchmark's ledger: whatever the file holds, it
    returns 0, never raises, and changes neither the file nor what the last
    load counted."""
    cache, _ = _record_cache(update_modified_program())
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    if state != "missing":
        store.dump(cache)
    if state == "not-json":
        with open(store.path, "wb") as handle:
            handle.write(b"{ not json")
    elif state == "format-7":
        data = _read_bytes(store.path)
        with open(store.path, "wb") as handle:
            handle.write(b'{"format":7}' + data[data.index(b"\n") :])
    before = _read_bytes(store.path) if store.exists() else None

    reader = PersistentSummaryStore(store.path)
    loaded = reader.load_into(SummaryCache())
    skipped = reader.skipped_entries
    assert loaded == (len(cache) if state == "current" else 0)
    assert reader.load_cost_model_into() == 0
    assert (reader.loaded_entries, reader.skipped_entries) == (loaded, skipped)
    assert (_read_bytes(store.path) if store.exists() else None) == before


# -- one term table per file, append-only dumps --------------------------------


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def _term_rows(path):
    """Row id -> row of the file's intact term-table records."""
    rows = {}
    for line in _read_bytes(path).split(b"\n")[1:-1]:
        if line[65:70] != b'["t",' or hashlib.sha256(line[65:]).hexdigest().encode() != line[:64]:
            continue
        record = json.loads(line[65:])
        for ident, row in enumerate(record[2:], record[1]):
            assert ident not in rows, f"row id {ident} written twice"
            rows[ident] = tuple(row)
    return rows


def _assert_one_row_per_term(path):
    """Rows refer to their children by id, so distinct rows with dense ids
    mean every distinct term has exactly one row."""
    rows = _term_rows(path)
    assert rows
    assert sorted(rows) == list(range(len(rows)))
    assert len(set(rows.values())) == len(rows)


def test_sequential_dumps_write_each_term_once(tmp_path):
    base_cache, _ = _record_cache(update_base_program())
    modified_cache, _ = _record_cache(update_modified_program())
    solo_rows = 0
    for name, cache in (("base", base_cache), ("modified", modified_cache)):
        solo = PersistentSummaryStore(str(tmp_path / f"{name}.json"))
        solo.dump(cache)
        solo_rows += len(_term_rows(solo.path))

    # The same object dumping twice, and a second object catching up from disk.
    same = PersistentSummaryStore(str(tmp_path / "same.json"))
    same.dump(base_cache)
    same.dump(modified_cache)
    other = str(tmp_path / "other.json")
    PersistentSummaryStore(other).dump(base_cache)
    PersistentSummaryStore(other).dump(modified_cache)
    for path in (same.path, other):
        _assert_one_row_per_term(path)
        # The two caches share terms, and the shared ones are not rewritten.
        assert len(_term_rows(path)) < solo_rows
    assert _read_bytes(same.path) == _read_bytes(other)


def _dump_worker(path, which):
    program = update_base_program() if which == "base" else update_modified_program()
    cache, _ = _record_cache(program)
    PersistentSummaryStore(path).dump(cache)


def test_concurrent_dumps_write_each_term_once(tmp_path):
    shared = str(tmp_path / "shared.json")
    workers = [
        multiprocessing.Process(target=_dump_worker, args=(shared, which))
        for which in ("base", "modified")
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
        assert worker.exitcode == 0
    _assert_one_row_per_term(shared)
    expected = set()
    for which in ("base", "modified"):
        solo = str(tmp_path / f"{which}.json")
        _dump_worker(solo, which)
        expected |= PersistentSummaryStore(solo).checksums()
    assert PersistentSummaryStore(shared).checksums() == expected


def test_resume_that_records_nothing_new_leaves_the_file_byte_identical(tmp_path):
    program = update_modified_program()
    cache, _ = _record_cache(program)
    path = str(tmp_path / "store.json")
    PersistentSummaryStore(path).dump(cache)
    before = _read_bytes(path)

    resumed = PersistentSummaryStore(path)
    warm = SummaryCache()
    assert resumed.load_into(warm) > 0
    result = symbolic_execute(program, procedure_name="update", summary_cache=warm)
    assert result.statistics.replayed_paths > 0
    resumed.dump(warm)
    assert _read_bytes(path) == before


def test_dump_appends_new_entries_after_the_old_bytes(tmp_path):
    base_cache, _ = _record_cache(update_base_program())
    path = str(tmp_path / "store.json")
    old = PersistentSummaryStore(path).dump(base_cache)
    before = _read_bytes(path)

    resumed = PersistentSummaryStore(path)
    warm = SummaryCache()
    assert resumed.load_into(warm) == old
    symbolic_execute(update_modified_program(), procedure_name="update", summary_cache=warm)
    total = resumed.dump(warm)
    new = total - old
    assert new > 0
    after = _read_bytes(path)
    assert after.startswith(before) and len(after) > len(before)
    _assert_one_row_per_term(path)

    reader = PersistentSummaryStore(path)
    assert reader.load_into(SummaryCache()) == old + new
    assert reader.skipped_entries == 0


def test_dump_cuts_a_torn_tail_back_to_the_last_intact_record(tmp_path):
    base_cache, _ = _record_cache(update_base_program())
    modified_cache, _ = _record_cache(update_modified_program())
    path = str(tmp_path / "store.json")
    store = PersistentSummaryStore(path)
    store.dump(base_cache)
    dumped = store.dump(modified_cache)
    original = store.checksums()
    data = _read_bytes(path)
    last = data.rindex(b"\n", 0, len(data) - 1) + 1
    with open(path, "wb") as handle:
        handle.write(data[: last + (len(data) - last) // 2])

    torn = PersistentSummaryStore(path)
    assert torn.load_into(SummaryCache()) == dumped - 1
    assert torn.skipped_entries == 1
    # A dump with nothing to add still cuts the partial record off ...
    assert torn.dump(SummaryCache()) == dumped - 1
    assert _read_bytes(path) == data[:last]
    # ... and one that has the lost entry appends it again.
    assert torn.dump(modified_cache) == dumped
    assert _read_bytes(path) == data

    reader = PersistentSummaryStore(path)
    assert reader.load_into(SummaryCache()) == dumped
    assert reader.skipped_entries == 0
    assert reader.checksums() == original


def test_a_lost_term_row_is_never_given_to_another_term(tmp_path):
    """Damage the last term-table record, which later entries refer to,
    then let another writer allocate rows: the entries that referred to
    the lost rows must fail to decode, not decode to the new terms."""
    base_cache, _ = _record_cache(update_base_program())
    modified_cache, _ = _record_cache(update_modified_program())
    path = str(tmp_path / "store.json")
    PersistentSummaryStore(path).dump(base_cache)
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    index = max(i for i, line in enumerate(lines) if line[65:70] == '["t",')
    assert any(i > index for i in _entry_line_indexes(lines))
    lines[index] = lines[index].replace('["t",', '["T",', 1)
    _rewrite(path, lines)

    PersistentSummaryStore(path).dump(modified_cache)
    originals = {}
    for cache in (base_cache, modified_cache):
        for key, summary in cache.iter_entries():
            originals[key] = summary
    reloaded = SummaryCache()
    reader = PersistentSummaryStore(path)
    assert reader.load_into(reloaded) > 0
    assert reader.skipped_entries > 1
    for key, summary in reloaded.iter_entries():
        assert originals.get(key) == summary


# -- warm resume across a real process boundary --------------------------------

_RESUME_SCRIPT = r"""
import json, sys
from repro.artifacts import all_artifacts
from repro.evolution.history import VersionHistoryRunner

artifact_name, store = sys.argv[1], sys.argv[2]
artifact = next(a for a in all_artifacts() if a.name == artifact_name)
report = VersionHistoryRunner(artifact, store_path=store).run()
seed = report.seed or {}
print(json.dumps({
    "cache": report.cache,
    "seed_paths": seed.get("paths", 0),
    "seed_replayed": seed.get("replayed_paths", 0),
    "seed_distinct": seed.get("distinct_path_conditions", 0),
    "pcs": {
        row.version: [list(row.dise_distinct_pcs), list(row.full_distinct_pcs)]
        for row in report.versions
    },
}))
"""


def test_store_warm_resume_in_fresh_process(tmp_path):
    """Cold run + dump, then a genuinely fresh process resumes warm."""
    import subprocess
    import sys

    store = str(tmp_path / "asw_store.json")
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def run():
        proc = subprocess.run(
            [sys.executable, "-c", _RESUME_SCRIPT, "ASW", store],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return json.loads(proc.stdout)

    cold = run()
    assert cold["cache"]["store_loaded"] == 0
    assert cold["cache"]["store_dumped"] > 0
    assert cold["seed_replayed"] == 0, "cold seed leg has nothing to replay"

    warm = run()
    assert warm["cache"]["store_loaded"] == cold["cache"]["store_dumped"]
    assert warm["cache"]["adopted"] == warm["cache"]["store_loaded"]
    # Identical results across the process boundary.
    assert warm["pcs"] == cold["pcs"]
    assert warm["seed_distinct"] == cold["seed_distinct"]
    # The seed leg re-executes the exact program the cold run recorded, so
    # its reuse isolates what the on-disk store contributed.
    assert warm["seed_paths"] > 0
    assert warm["seed_replayed"] / warm["seed_paths"] >= 0.30
