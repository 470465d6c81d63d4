"""Round-trip property tests for the structural (process-portable) codec."""

import json
import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.artifacts.simple import update_modified_program
from repro.parallel.serialize import (
    decode_cache_entry,
    decode_term,
    decode_value,
    encode_cache_entries,
    encode_cache_entry,
    encode_term,
    encode_value,
)
from repro.solver.terms import (
    clear_intern_table,
    intern_term,
    mk_binary,
    mk_bool,
    mk_int,
    mk_neg,
    mk_not,
    mk_symbol,
)
from repro.symexec.engine import symbolic_execute
from repro.symexec.summary_cache import SummaryCache


# -- term generator ------------------------------------------------------------

_LEAVES = st.one_of(
    st.integers(min_value=-50, max_value=50).map(mk_int),
    st.booleans().map(mk_bool),
    st.sampled_from(["x", "y", "z"]).map(mk_symbol),
    st.sampled_from(["p", "q"]).map(lambda name: mk_symbol(name, "bool")),
)


def _extend(children):
    int_ops = st.sampled_from(["+", "-", "*"])
    cmp_ops = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])
    return st.one_of(
        st.tuples(int_ops, children, children).map(lambda t: mk_binary(t[0], t[1], t[2])),
        st.tuples(cmp_ops, children, children).map(lambda t: mk_binary(t[0], t[1], t[2])),
        children.map(mk_neg),
        children.map(mk_not),
    )


TERMS = st.recursive(_LEAVES, _extend, max_leaves=12)


@given(TERMS)
@settings(max_examples=200, deadline=None)
def test_term_round_trip_is_canonical(term):
    """decode(encode(t)) is structurally equal AND re-interned to canonical."""
    encoded = encode_term(term)
    # The wire format must be pure JSON data.
    decoded = decode_term(json.loads(json.dumps(encoded)))
    assert decoded == term
    # Decoding re-interns: the result *is* the canonical instance.
    assert decoded is intern_term(term)


@given(TERMS, TERMS)
@settings(max_examples=50, deadline=None)
def test_distinct_terms_encode_distinctly(left, right):
    if left != right:
        assert encode_term(left) != encode_term(right)
    else:
        assert encode_term(left) == encode_term(right)


def test_value_codec_round_trips_strategy_tokens():
    token = (
        frozenset({1, 5, 9}),
        frozenset(),
        frozenset({2}),
        frozenset({0, 3}),
        True,
        False,
        (True, False),
    )
    assert decode_value(json.loads(json.dumps(encode_value(token)))) == token


def test_value_codec_round_trips_nested_containers():
    value = {"a": [1, (2, 3)], "b": {frozenset({4}), 5}, "c": None, "d": mk_int(7)}
    round_tripped = decode_value(json.loads(json.dumps(encode_value(value))))
    assert round_tripped == value
    assert round_tripped["d"] is mk_int(7)


def _entries_for(program, procedure_name):
    cache = SummaryCache()
    symbolic_execute(program, procedure_name=procedure_name, summary_cache=cache)
    entries = encode_cache_entries(cache.iter_entries())
    assert entries, "expected at least one serializable cache entry"
    return entries


def test_cache_entry_round_trip_rebuilds_equal_keys():
    program = update_modified_program()
    for data in _entries_for(program, "update"):
        key1, summary1, pins1 = decode_cache_entry(data)
        # Encoding the decoded entry and decoding again is a fixed point.
        re_encoded = encode_cache_entry(key1, summary1, pins1)
        key2, summary2, _ = decode_cache_entry(json.loads(json.dumps(re_encoded)))
        assert key1 == key2
        assert summary1 == summary2


def test_summary_replay_bit_identical_after_cross_process_round_trip(tmp_path):
    """The acceptance property: a summary that crossed a *real* process
    fence replays exactly what the in-process original replays."""
    program = update_modified_program()
    entries = _entries_for(program, "update")

    # Ship the entries through a separate Python process that decodes them
    # (re-interning in its own intern table) and re-encodes them.
    script = (
        "import json, sys\n"
        "from repro.parallel.serialize import decode_cache_entry, encode_cache_entry\n"
        "entries = json.load(sys.stdin)\n"
        "out = [encode_cache_entry(*decode_cache_entry(e)) for e in entries]\n"
        "json.dump(out, sys.stdout)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(entries),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    shipped = json.loads(proc.stdout)
    assert len(shipped) == len(entries)

    def run_with(encoded_entries):
        # A fresh intern table simulates a fresh process lifetime: every id
        # the entries referred to is gone and must be rebuilt by decode.
        clear_intern_table()
        cache = SummaryCache()
        for data in encoded_entries:
            key, summary, pins = decode_cache_entry(data)
            cache.adopt(key, summary, pins=pins)
        result = symbolic_execute(program, procedure_name="update", summary_cache=cache)
        assert result.statistics.summary_cache_hits > 0, "warm cache must replay"
        return [
            (str(r.path_condition), tuple(map(str, r.final_environment)), r.trace, r.is_error)
            for r in result.summary.records
        ]

    in_process = run_with(entries)
    cross_process = run_with(shipped)
    native = [
        (str(r.path_condition), tuple(map(str, r.final_environment)), r.trace, r.is_error)
        for r in symbolic_execute(program, procedure_name="update").summary.records
    ]
    assert in_process == cross_process == native


def test_call_summary_entry_round_trip():
    """Generalised ("call"-kind) entries survive the codec structurally."""
    from repro.artifacts.interproc import asw_calls_artifact
    from repro.lang.parser import parse_program
    from repro.symexec.summary_cache import CallSummary

    artifact = asw_calls_artifact()
    program = parse_program(artifact.base_source)
    cache = SummaryCache()
    result = symbolic_execute(
        program, procedure_name=artifact.procedure_name, summary_cache=cache
    )
    assert result.statistics.generalized_call_stores > 0
    call_entries = [
        encode_cache_entry(key, summary, pins)
        for key, summary, pins in cache.iter_entries()
        if key[0] == "call"
    ]
    assert call_entries
    for data in call_entries:
        key1, summary1, pins1 = decode_cache_entry(data)
        assert isinstance(summary1, CallSummary)
        assert pins1 == ()
        re_encoded = encode_cache_entry(key1, summary1, pins1)
        key2, summary2, _ = decode_cache_entry(json.loads(json.dumps(re_encoded)))
        assert key1 == key2
        assert summary1 == summary2

    # A fresh intern table (fresh process lifetime): decoded entries must
    # replay at the call sites without re-recording anything.
    clear_intern_table()
    program = parse_program(artifact.base_source)
    warm_cache = SummaryCache()
    for data in call_entries:
        key, summary, pins = decode_cache_entry(data)
        assert warm_cache.adopt(key, summary, pins=pins)
    warm = symbolic_execute(
        program, procedure_name=artifact.procedure_name, summary_cache=warm_cache
    )
    assert warm.statistics.generalized_call_hits > 0
    assert warm.statistics.generalized_call_stores == 0
    cold = symbolic_execute(program, procedure_name=artifact.procedure_name)
    assert sorted(str(c) for c in warm.summary.distinct_path_conditions()) == sorted(
        str(c) for c in cold.summary.distinct_path_conditions()
    )
