"""Persistent summary store: dump/load round trips, resilience, versioning."""

import hashlib
import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.artifacts.simple import update_base_program, update_modified_program
from repro.parallel.store import STORE_FORMAT, CostModelState, Histogram, PersistentSummaryStore
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
    """A newer format, and format 5, whose files may hold the generalised
    call entries no reader decodes any more, are refused whole."""
    program = update_modified_program()
    cache, _ = _record_cache(program)
    for fmt in (STORE_FORMAT + 1, 5):
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


def _ignored_and_replaced(store, fmt, cost_model=None):
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
    assert store.load_cost_model_into(CostModelState()) == 0

    cache, _ = _record_cache(update_modified_program())
    dumped = store.dump(cache, cost_model=cost_model)
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
    PersistentSummaryStore(path).dump(cache, cost_model=_taught_model())
    before = _read_bytes(path)

    resumed = PersistentSummaryStore(path)
    warm = SummaryCache()
    assert resumed.load_into(warm) > 0
    model = CostModelState()
    assert resumed.load_cost_model_into(model) == 2
    result = symbolic_execute(program, procedure_name="update", summary_cache=warm)
    assert result.statistics.replayed_paths > 0
    resumed.dump(warm, cost_model=model)
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


# -- persisted cost-model state --------------------------------------------------


def _taught_state():
    """A state with learned values in every field."""
    fence = Histogram()
    fence.observe(0.1)
    return {
        "version": CostModelState.STATE_VERSION,
        "fence_seconds": 0.1,
        "seconds_per_path": 0.03,
        "observed_tasks": 2,
        "observed_rounds": 1,
        "digest_seconds": {"digest-a": 0.2, "digest-b": 0.05},
        "digest_paths": {"digest-a": 4, "digest-b": 2},
        "digest_spread": {},
        "run_seconds": {"full:update": 0.4},
        "run_shards": {"full:update": 2.0},
        "run_gated": [],
        "feature_buckets": {"n5b1c0d3": [1.0, 0.2]},
        "fence_histogram": fence.as_dict(),
        "shard_histogram": Histogram().as_dict(),
    }


def _taught_model():
    model = CostModelState()
    model.adopt_state(_taught_state())
    return model


class TestHistogram:
    """The bucket histogram the costmodel state persists and seeds from."""

    def test_observe_buckets_and_stats(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.buckets == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.min == 0.5 and histogram.max == 50.0
        assert histogram.total == 55.5

    def test_merge_dict_adds(self):
        a = Histogram(bounds=(1.0,))
        b = Histogram(bounds=(1.0,))
        a.observe(0.5)
        b.observe(2.0)
        assert a.merge_dict(b.as_dict())
        assert a.count == 2
        assert a.buckets == [1, 1]
        assert a.max == 2.0

    def test_merge_dict_rejects_mismatched_bounds(self):
        a = Histogram(bounds=(1.0,))
        b = Histogram(bounds=(2.0,))
        assert not a.merge_dict(b.as_dict())
        assert a.count == 0

    def test_percentile_empty_is_none(self):
        assert Histogram().percentile(0.5) is None

    def test_percentile_degenerate_distribution_is_exact(self):
        histogram = Histogram()
        for _ in range(9):
            histogram.observe(0.007)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert histogram.percentile(q) == 0.007

    def test_percentile_edges_clamp_to_observed_range(self):
        histogram = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (2.0, 3.0, 20.0, 30.0):
            histogram.observe(value)
        assert histogram.percentile(-1.0) == 2.0
        assert histogram.percentile(0.0) == 2.0
        assert histogram.percentile(1.0) == 30.0
        assert histogram.percentile(2.0) == 30.0
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert 2.0 <= histogram.percentile(q) <= 30.0

    def test_percentile_monotonic_in_q(self):
        histogram = Histogram()
        for value in (0.0007, 0.003, 0.02, 0.3, 2.0, 8.0):
            histogram.observe(value)
        values = [histogram.percentile(i / 10.0) for i in range(11)]
        assert values == sorted(values)

    def test_percentile_interpolates_inside_the_right_bucket(self):
        # Four observations below the first bound, one between the bounds:
        # the median must land in the first bucket (clamped to the observed
        # min), the p90 in the second (clamped to the observed max).
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.2, 0.4, 0.6, 0.8, 5.0):
            histogram.observe(value)
        median = histogram.percentile(0.5)
        assert 0.2 <= median <= 1.0
        p90 = histogram.percentile(0.9)
        assert 1.0 <= p90 <= 5.0

    def test_percentile_survives_as_dict_merge(self):
        # The warm-start path: a persisted histogram is merged into a fresh
        # one, whose median then seeds the fence EWMA.
        recorded = Histogram()
        for value in (0.001, 0.004, 0.004, 0.004, 0.2):
            recorded.observe(value)
        fresh = Histogram()
        assert fresh.merge_dict(recorded.as_dict())
        assert fresh.percentile(0.5) == recorded.percentile(0.5)


class TestCostModelState:
    """export_state / adopt_state: the merge rules the costmodel line obeys."""

    def test_export_is_pure_json_and_adopt_round_trips(self):
        model = _taught_model()
        state = json.loads(json.dumps(model.export_state()))
        fresh = CostModelState()
        assert fresh.adopt_state(state) == 2
        assert fresh.export_state() == model.export_state()
        assert fresh.digest_seconds == {"digest-a": 0.2, "digest-b": 0.05}
        assert fresh.seconds_per_path == pytest.approx(0.03)
        assert fresh.observed_tasks == 2
        assert fresh.observed_rounds == 1

    def test_adopt_is_idempotent(self):
        state = _taught_state()
        fresh = CostModelState()
        assert fresh.adopt_state(state) > 0
        once = fresh.export_state()
        assert fresh.adopt_state(state) == 0
        assert fresh.export_state() == once

    def test_fence_seeds_from_persisted_histogram_median(self):
        state = _taught_state()
        fence = Histogram()
        for _ in range(3):
            fence.observe(0.1)
        state["fence_histogram"] = fence.as_dict()
        state["fence_seconds"] = 0.7
        fresh = CostModelState()
        fresh.adopt_state(state)
        # The histogram is degenerate, so its median -- not the persisted
        # scalar -- seeds the fence exactly.
        assert fresh.fence_seconds == pytest.approx(0.1)

        state["fence_histogram"] = Histogram().as_dict()
        bare = CostModelState()
        bare.adopt_state(state)
        assert bare.fence_seconds == pytest.approx(0.7)

    def test_local_observations_beat_adopted_state(self):
        local = CostModelState()
        local.digest_seconds["digest-a"] = 0.001
        local.digest_paths["digest-a"] = 9
        local.observed_rounds = 1
        local.fence_seconds = 0.5
        assert local.adopt_state(_taught_state()) == 1  # only digest-b is new
        assert local.digest_seconds["digest-a"] == pytest.approx(0.001)
        assert local.fence_seconds == pytest.approx(0.5)
        # Path counts keep the maximum of both sides.
        assert local.digest_paths == {"digest-a": 9, "digest-b": 2}

    def test_unknown_version_and_garbage_are_ignored(self):
        fresh = CostModelState()
        cold = fresh.export_state()
        assert fresh.adopt_state(None) == 0
        assert fresh.adopt_state("junk") == 0
        assert fresh.adopt_state({"version": 99, "digest_seconds": {"d": 1.0}}) == 0
        assert fresh.export_state() == cold
        assert (
            fresh.adopt_state(
                {
                    "version": CostModelState.STATE_VERSION,
                    "digest_seconds": {"good": 0.25, "bad": "not-a-number"},
                    "digest_paths": {"good": "nope"},
                    "feature_buckets": {"b": "scrambled"},
                    "fence_histogram": "torn",
                }
            )
            == 1
        )
        assert fresh.digest_seconds == {"good": 0.25}
        assert fresh.feature_buckets == {}
        assert fresh.fence_seconds == cold["fence_seconds"]


def test_costmodel_entry_round_trips(tmp_path):
    program = update_modified_program()
    cache, _ = _record_cache(program)
    model = _taught_model()
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    dumped = store.dump(cache, cost_model=model)
    assert store.costmodel_published
    assert store.costmodel_state_count() == 1
    # The costmodel line is bookkeeping, not a cache entry: dump's return
    # value, entry_count and load_into must all agree on cache entries only.
    assert store.entry_count() == dumped
    fresh_cache = SummaryCache()
    assert store.load_into(fresh_cache) == dumped
    assert store.skipped_entries == 0

    fresh = CostModelState()
    assert store.load_cost_model_into(fresh) == 2
    assert store.costmodel_adopted == 2
    assert fresh.digest_seconds == model.digest_seconds
    assert fresh.run_seconds == {"full:update": pytest.approx(0.4)}
    # Fence seeded from the persisted histogram median (one 0.1s/task round).
    assert fresh.fence_seconds == pytest.approx(0.1)
    assert fresh.export_state() == model.export_state()


def test_dump_without_model_carries_costmodel_lines(tmp_path):
    program = update_modified_program()
    cache, _ = _record_cache(program)
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    store.dump(cache, cost_model=_taught_model())
    # A later writer with nothing to publish must not strip the state.
    store.dump(cache)
    assert not store.costmodel_published
    assert store.costmodel_state_count() == 1
    assert store.load_cost_model_into(CostModelState()) == 2


def test_dump_with_model_replaces_and_merges_states(tmp_path):
    program = update_modified_program()
    cache, _ = _record_cache(program)
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    store.dump(cache, cost_model=_taught_model())

    second = CostModelState()
    second.digest_seconds.update({"digest-a": 9.0, "digest-c": 0.01})
    store.dump(cache, cost_model=second)
    # Appended, not rewritten: the new record is the merged state, the
    # dumped state's keys winning over the disk state's, disk-only keys
    # surviving; it supersedes the older record on load.
    assert store.costmodel_state_count() == 2
    merged = CostModelState()
    assert store.load_cost_model_into(merged) == 3
    assert merged.digest_seconds["digest-a"] == pytest.approx(9.0)
    assert "digest-b" in merged.digest_seconds
    assert merged.digest_seconds["digest-c"] == pytest.approx(0.01)


def test_load_cost_model_from_missing_or_corrupt_store(tmp_path):
    absent = PersistentSummaryStore(str(tmp_path / "absent.json"))
    assert absent.load_cost_model_into(CostModelState()) == 0
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{ not json", encoding="utf-8")
    assert PersistentSummaryStore(str(corrupt)).load_cost_model_into(CostModelState()) == 0


def test_format_3_store_is_ignored_and_republished_as_format_5(tmp_path):
    """A format-3 file (no costmodel states) warms nothing, and the next
    model-carrying dump republishes the path in the current format."""
    program = update_modified_program()
    cache, _ = _record_cache(program)
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    dumped = store.dump(cache)
    assert _ignored_and_replaced(store, 3, cost_model=_taught_model()) == dumped
    assert store.costmodel_state_count() == 1
    assert store.load_cost_model_into(CostModelState()) == 2


# -- costmodel states against an independent whole-file reader ---------------


def _adopted_by_full_scan(path):
    """What adopting every intact costmodel record anywhere in the file,
    newest first, adopts: a reference reader of the current format that
    shares no code with the store.  A record is intact when it is a complete line
    whose sha256 matches its payload; a file whose first line is not a
    complete current-format header holds nothing."""
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")[:-1]  # the last piece is unterminated
    if not lines or json.loads(lines[0]) != {"format": STORE_FORMAT}:
        return 0
    states = [
        json.loads(line[65:])[1]
        for line in lines[1:]
        if line[65:70] == b'["c",'
        and hashlib.sha256(line[65:]).hexdigest().encode() == line[:64]
    ]
    model = CostModelState()
    return sum(model.adopt_state(state) for state in reversed(states))


def _rewrite(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _store_lines(tmp_path, name, with_model=True):
    cache, _ = _record_cache(update_modified_program())
    store = PersistentSummaryStore(str(tmp_path / name))
    store.dump(cache, cost_model=_taught_model() if with_model else None)
    with open(store.path, "r", encoding="utf-8") as handle:
        return store, handle.read().splitlines()


@pytest.mark.parametrize(
    "fmt, with_model, expected", [(2, False, 0), (3, False, 0), (4, True, 2), (4, False, 0)]
)
def test_costmodel_adoption_per_format(tmp_path, fmt, with_model, expected):
    """A file of an older format adopts nothing; once the next dump has
    replaced it, the file adopts what that dump published."""
    store, lines = _store_lines(tmp_path, "store.json", with_model=with_model)
    lines[0] = json.dumps({"format": fmt})
    _rewrite(store.path, lines)
    assert store.load_cost_model_into(CostModelState()) == 0
    assert _adopted_by_full_scan(store.path) == 0
    cache, _ = _record_cache(update_modified_program())
    store.dump(cache, cost_model=_taught_model() if with_model else None)
    assert store.load_cost_model_into(CostModelState()) == expected
    assert _adopted_by_full_scan(store.path) == expected


def test_costmodel_adoption_on_torn_tail_matches_full_scan(tmp_path):
    store, lines = _store_lines(tmp_path, "store.json")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    # Every offset through the header and the costmodel line, then a stride
    # through the cache entries.
    prefix = len(lines[0]) + len(lines[1]) + 2
    offsets = list(range(0, prefix + 2)) + list(range(prefix + 2, len(data) + 1, 97))
    torn = tmp_path / "torn.json"
    for offset in offsets:
        torn.write_bytes(data[:offset])
        expected = _adopted_by_full_scan(str(torn))
        # The costmodel record counts once its newline is written.
        assert expected == (2 if offset >= prefix else 0)
        assert PersistentSummaryStore(str(torn)).load_cost_model_into(CostModelState()) == expected


@pytest.mark.parametrize("victim", ["costmodel", "entry"])
def test_costmodel_adoption_on_corrupt_line_matches_full_scan(tmp_path, victim):
    store, lines = _store_lines(tmp_path, "store.json")
    index = 1 if victim == "costmodel" else _entry_line_indexes(lines)[0]
    middle = len(lines[index]) // 2
    lines[index] = lines[index][:middle] + "#" + lines[index][middle + 1 :]
    _rewrite(store.path, lines)
    expected = _adopted_by_full_scan(store.path)
    assert expected == (0 if victim == "costmodel" else 2)
    assert store.load_cost_model_into(CostModelState()) == expected


# -- hypothesis: arbitrary states survive the store ----------------------------

_DIGESTS = st.text(alphabet="abcdef0123456789", min_size=1, max_size=12)
_SECONDS = st.floats(
    min_value=1e-6, max_value=100.0, allow_nan=False, allow_infinity=False
)
_STATES = st.fixed_dictionaries(
    {
        "version": st.just(CostModelState.STATE_VERSION),
        "digest_seconds": st.dictionaries(_DIGESTS, _SECONDS, max_size=20),
        "digest_paths": st.dictionaries(
            _DIGESTS, st.integers(min_value=1, max_value=50), max_size=20
        ),
        "run_seconds": st.dictionaries(_DIGESTS, _SECONDS, max_size=5),
        "feature_buckets": st.dictionaries(
            _DIGESTS,
            st.tuples(st.integers(min_value=1, max_value=9), _SECONDS).map(list),
            max_size=5,
        ),
    }
)


@given(state=_STATES)
@settings(max_examples=100, deadline=None)
def test_costmodel_state_json_round_trip_is_lossless(state):
    """encode -> decode -> adopt-into-cold reproduces every field, and a
    second adoption is a no-op (the idempotence the store merge relies on)."""
    model = CostModelState()
    model.adopt_state(state)
    exported = json.loads(json.dumps(model.export_state()))
    fresh = CostModelState()
    fresh.adopt_state(exported)
    assert fresh.export_state()["digest_seconds"] == state["digest_seconds"]
    assert fresh.export_state()["digest_paths"] == state["digest_paths"]
    assert fresh.export_state()["feature_buckets"] == {
        bucket: [float(count), total] for bucket, (count, total) in state["feature_buckets"].items()
    }
    once = fresh.export_state()
    assert fresh.adopt_state(exported) == 0
    assert fresh.export_state() == once


@given(state=_STATES)
@settings(max_examples=25, deadline=None)
def test_costmodel_state_survives_store_dump_load(state):
    """Any state written as a costmodel record loads back with every
    digest estimate intact."""
    import tempfile

    model = CostModelState()
    model.adopt_state(state)
    with tempfile.TemporaryDirectory() as scratch:
        store = PersistentSummaryStore(os.path.join(scratch, "store.json"))
        store.dump(SummaryCache(), cost_model=model)
        assert store.costmodel_state_count() == 1
        loaded = CostModelState()
        adopted = store.load_cost_model_into(loaded)
    exported = model.export_state()
    assert adopted == len(exported["digest_seconds"])
    assert loaded.export_state()["digest_seconds"] == exported["digest_seconds"]
    assert loaded.export_state()["run_seconds"] == exported["run_seconds"]


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
