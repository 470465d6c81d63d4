"""Adopting stored entries: content-keyed union, casualties counted."""

import itertools

from repro.artifacts.simple import update_base_program, update_modified_program
from repro.parallel.serialize import build_rows
from repro.parallel.store import merge_encoded_entries_counted
from repro.symexec.engine import symbolic_execute
from repro.symexec.summary_cache import SummaryCache

from tests.parallel.test_serialize import encode_all


def _encoded(cache):
    """``(entries, terms)``: the cache's entries against one term table, and
    the table's rows rebuilt."""
    encoded = encode_all(cache.iter_entries())
    terms = {}
    build_rows(0, encoded["rows"], terms)
    return encoded["entries"], terms


def test_merge_encoded_entries_round_trips_and_skips_garbage():
    cache = SummaryCache()
    symbolic_execute(update_modified_program(), procedure_name="update", summary_cache=cache)
    encoded, terms = _encoded(cache)
    assert encoded

    target = SummaryCache()
    # Garbage, a corrupt frame (summary dropped) and a reference to a row
    # the table does not hold are all skipped.
    dangling = list(encoded[0])
    dangling[3] = [["x", len(terms)]]
    adopted, skipped = merge_encoded_entries_counted(
        target,
        encoded + [{"kind": "suffix"}, "junk", ["e", "corrupt"] + encoded[0][2:-1], dangling],
        terms,
    )
    assert adopted == len(encoded)
    assert skipped == 4
    assert target.statistics.adopted == adopted
    # Adopting the same entries again adds nothing and skips nothing.
    assert merge_encoded_entries_counted(target, encoded, terms) == (0, 0)

    # Replaying through the merged cache matches a cold run exactly.
    warm = symbolic_execute(
        update_modified_program(), procedure_name="update", summary_cache=target
    )
    cold = symbolic_execute(update_modified_program(), procedure_name="update")
    assert warm.statistics.replayed_paths > 0
    assert [str(r.path_condition) for r in warm.summary.records] == [
        str(r.path_condition) for r in cold.summary.records
    ]


def test_merging_two_stores_is_key_union_first_in_wins():
    base_cache = SummaryCache()
    symbolic_execute(update_base_program(), procedure_name="update", summary_cache=base_cache)
    mod_cache = SummaryCache()
    symbolic_execute(update_modified_program(), procedure_name="update", summary_cache=mod_cache)
    encoded = {"base": _encoded(base_cache), "mod": _encoded(mod_cache)}
    keys_base = {key for key, _ in base_cache.iter_entries()}
    keys_mod = {key for key, _ in mod_cache.iter_entries()}
    assert keys_base - keys_mod and keys_mod - keys_base

    target = SummaryCache()
    adopted = sum(
        merge_encoded_entries_counted(target, *encoded[name])[0] for name in ("base", "mod")
    )
    assert {key for key, _ in target.iter_entries()} == keys_base | keys_mod
    assert adopted == len(keys_base | keys_mod)

    # Merging again in any order adds nothing and skips nothing.
    for ordering in itertools.permutations(encoded):
        for name in ordering:
            assert merge_encoded_entries_counted(target, *encoded[name]) == (0, 0)
