"""Adopting stored entries: content-keyed union, casualties counted."""

import itertools

from repro.artifacts.simple import update_base_program, update_modified_program
from repro.parallel.serialize import encode_cache_entries
from repro.parallel.store import merge_encoded_entries_counted
from repro.symexec.engine import symbolic_execute
from repro.symexec.summary_cache import SummaryCache


def test_merge_encoded_entries_round_trips_and_skips_garbage():
    cache = SummaryCache()
    symbolic_execute(update_modified_program(), procedure_name="update", summary_cache=cache)
    encoded = encode_cache_entries(cache.iter_entries())
    assert encoded

    target = SummaryCache()
    adopted, skipped = merge_encoded_entries_counted(
        target, encoded + [{"kind": "suffix"}, "junk"]
    )
    assert adopted == len(encoded)
    assert skipped == 2
    assert target.statistics.adopted == adopted
    # Adopting the same entries again adds nothing and skips nothing.
    assert merge_encoded_entries_counted(target, encoded) == (0, 0)

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
    encoded = {
        "base": encode_cache_entries(base_cache.iter_entries()),
        "mod": encode_cache_entries(mod_cache.iter_entries()),
    }
    keys_base = {key for key, _, _ in base_cache.iter_entries()}
    keys_mod = {key for key, _, _ in mod_cache.iter_entries()}
    assert keys_base - keys_mod and keys_mod - keys_base

    target = SummaryCache()
    adopted = sum(
        merge_encoded_entries_counted(target, encoded[name])[0] for name in ("base", "mod")
    )
    assert {key for key, _, _ in target.iter_entries()} == keys_base | keys_mod
    assert adopted == len(keys_base | keys_mod)

    # Merging again in any order adds nothing and skips nothing.
    for ordering in itertools.permutations(encoded):
        for name in ordering:
            assert merge_encoded_entries_counted(target, encoded[name]) == (0, 0)
