"""Persistent summary store: dump/load round trips, resilience, versioning."""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.artifacts.simple import update_modified_program
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
    program = update_modified_program()
    cache, _ = _record_cache(program)
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    store.dump(cache)

    with open(store.path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    lines[0] = json.dumps({"format": STORE_FORMAT + 1})
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
    # Corrupt one entry line: content no longer matches its checksum.
    lines[1] = lines[1].replace('"entry"', '"entry_x"', 1)
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


def test_format_2_store_still_loads(tmp_path):
    """Backward compatibility: a pre-call-summary (format 2) store loads.

    Format-2 entries are a strict subset of format-3 shapes, so rewriting
    the header is exactly what an old store looks like; every entry must
    load with nothing skipped.
    """
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    dumped, live = _dump_without_call_entries(store)
    assert dumped > 0

    with open(store.path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert json.loads(lines[0]) == {"format": STORE_FORMAT}
    lines[0] = json.dumps({"format": 2})
    with open(store.path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    assert_terms_released(live)
    fresh = SummaryCache()
    assert store.load_into(fresh) == dumped
    assert store.skipped_entries == 0
    assert len(fresh) == dumped


def _dump_without_call_entries(store):
    """Dump a recording minus its generalised entries, so the file content
    is genuinely what a format-2 writer could have produced.  Returns the
    dumped count and the intern-table size while the recording was alive
    (it dies on return)."""
    cache, _ = _record_cache(update_modified_program())
    legacy = SummaryCache()
    for key, summary, pins in cache.iter_entries():
        if key[0] != "call":
            legacy.adopt(key, summary, pins=pins)
    return store.dump(legacy), interned_count()


def test_call_summaries_round_trip_through_store(tmp_path):
    """Format 3's reason to exist: "call" entries survive dump/load."""
    from repro.artifacts.interproc import fcs_artifact
    from repro.lang.parser import parse_program

    artifact = fcs_artifact()
    program = parse_program(artifact.base_source)
    cache = SummaryCache()
    result = symbolic_execute(
        program, procedure_name=artifact.procedure_name, summary_cache=cache
    )
    assert result.statistics.generalized_call_stores > 0
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    store.dump(cache)
    expected_per_callee = cache.entries_per_callee()

    live = interned_count()
    del cache, result
    assert_terms_released(live)
    program = parse_program(artifact.base_source)
    loaded_cache = SummaryCache()
    assert store.load_into(loaded_cache) > 0
    assert store.skipped_entries == 0
    assert loaded_cache.entries_per_callee() == expected_per_callee
    # Keep only the generalised entries: with the whole-suffix entry loaded
    # too, replay fires at BEGIN and the call sites are never reached.
    warm_cache = SummaryCache()
    for key, summary, pins in loaded_cache.iter_entries():
        if key[0] == "call":
            warm_cache.adopt(key, summary, pins=pins)
    warm = symbolic_execute(
        program, procedure_name=artifact.procedure_name, summary_cache=warm_cache
    )
    assert warm.statistics.generalized_call_stores == 0
    assert warm.statistics.generalized_call_hits > 0


# -- format 4: persisted cost-model state --------------------------------------


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
    # Replaced, not accumulated: one merged line, the dumped state's keys
    # winning over the disk state's, disk-only keys surviving.
    assert store.costmodel_state_count() == 1
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


def test_format_3_store_loads_and_republishes_as_format_4(tmp_path):
    """Backward compatibility: a format-3 store (no costmodel lines) loads
    cleanly, and the next model-carrying dump upgrades it in place."""
    program = update_modified_program()
    cache, cold = _record_cache(program)
    store = PersistentSummaryStore(str(tmp_path / "store.json"))
    dumped = store.dump(cache)

    with open(store.path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert json.loads(lines[0]) == {"format": STORE_FORMAT}
    lines[0] = json.dumps({"format": 3})
    with open(store.path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    live = interned_count()
    del cache, cold
    assert_terms_released(live)
    fresh = SummaryCache()
    assert store.load_into(fresh) == dumped
    assert store.skipped_entries == 0
    assert store.load_cost_model_into(CostModelState()) == 0

    assert store.dump(fresh, cost_model=_taught_model()) == dumped
    with open(store.path, "r", encoding="utf-8") as handle:
        first_line = handle.readline()
    assert json.loads(first_line) == {"format": STORE_FORMAT}
    assert store.costmodel_state_count() == 1
    reloaded = SummaryCache()
    assert store.load_into(reloaded) == dumped


# -- load_cost_model_into reads only the block after the header ----------------


def _adopted_by_full_scan(path):
    """What adopting every intact costmodel line anywhere in the file adopts
    (the whole-file reference the header-block reader must agree with)."""
    model = CostModelState()
    scanned = PersistentSummaryStore(path)._scan()
    if scanned is None:
        return 0
    return sum(
        model.adopt_state(entry.get("state"))
        for _, entry in scanned[0]
        if entry.get("kind") == "costmodel"
    )


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
    store, lines = _store_lines(tmp_path, "store.json", with_model=with_model)
    lines[0] = json.dumps({"format": fmt})
    _rewrite(store.path, lines)
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
        assert expected == (2 if offset >= prefix - 1 else 0)
        assert PersistentSummaryStore(str(torn)).load_cost_model_into(CostModelState()) == expected


@pytest.mark.parametrize("victim", ["costmodel", "entry"])
def test_costmodel_adoption_on_corrupt_line_matches_full_scan(tmp_path, victim):
    store, lines = _store_lines(tmp_path, "store.json")
    index = 1 if victim == "costmodel" else 2
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
    """Any state written as a format-4 costmodel entry loads back with every
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
