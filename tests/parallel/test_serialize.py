"""Round-trip property tests for the term-table (process-portable) codec."""

import gc
import json
import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.artifacts.simple import update_modified_program
from repro.lang.parser import parse_program
from repro.parallel.serialize import (
    EntryDecoder,
    TermTable,
    build_rows,
    decode_cache_entry,
    decode_value,
    encode_cache_entries,
    encode_value,
)
from repro.solver.terms import (
    BinaryTerm,
    BoolConst,
    IntConst,
    NegTerm,
    NotTerm,
    Symbol,
    interned_count,
)
from repro.symexec.engine import symbolic_execute
from repro.symexec.summary_cache import SummaryCache


# -- term generator ------------------------------------------------------------

_LEAVES = st.one_of(
    st.integers(min_value=-50, max_value=50).map(IntConst),
    st.booleans().map(BoolConst),
    st.sampled_from(["x", "y", "z"]).map(Symbol),
    st.sampled_from(["p", "q"]).map(lambda name: Symbol(name, "bool")),
)


def _extend(children):
    int_ops = st.sampled_from(["+", "-", "*"])
    cmp_ops = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])
    return st.one_of(
        st.builds(BinaryTerm, int_ops, children, children),
        st.builds(BinaryTerm, cmp_ops, children, children),
        children.map(NegTerm),
        children.map(NotTerm),
    )


TERMS = st.recursive(_LEAVES, _extend, max_leaves=12)


def _rebuilt(table):
    """The table's rows, through JSON, rebuilt into a fresh id -> term map."""
    first_id, rows = table.take_rows()
    terms = {}
    build_rows(first_id, json.loads(json.dumps(rows)), terms)
    return terms


@given(TERMS)
@settings(max_examples=200, deadline=None)
def test_term_round_trip_is_canonical(term):
    """Rebuilding a term's rows yields the canonical instance of ``term``."""
    table = TermTable()
    ident = table.ref(term)
    assert _rebuilt(table)[ident] is term


@given(TERMS, TERMS)
@settings(max_examples=50, deadline=None)
def test_distinct_terms_encode_distinctly(left, right):
    """One table gives each distinct term exactly one row."""
    table = TermTable()
    left_id, right_id = table.ref(left), table.ref(right)
    assert (left_id == right_id) is (left is right)
    _, rows = table.take_rows()
    assert len(set(rows)) == len(rows)
    # Encoding again allocates nothing.
    assert table.ref(left) == left_id and table.ref(right) == right_id
    assert table.take_rows()[1] == []


def _value_round_trip(value):
    table = TermTable()
    data = json.loads(json.dumps(encode_value(value, table)))
    return decode_value(data, _rebuilt(table))


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
    assert _value_round_trip(token) == token


def test_value_codec_round_trips_nested_containers():
    value = {"a": [1, (2, 3)], "b": {frozenset({4}), 5}, "c": None, "d": IntConst(7)}
    round_tripped = _value_round_trip(value)
    assert round_tripped == value
    assert round_tripped["d"] is IntConst(7)


def encode_all(pairs):
    """Encode ``(key, summary)`` pairs against one term table, as pure JSON
    data: ``{"rows": [...], "entries": [...]}``."""
    table = TermTable()
    entries = list(encode_cache_entries(pairs, table))
    first_id, rows = table.take_rows()
    assert first_id == 0
    return json.loads(json.dumps({"rows": rows, "entries": entries}))


def decode_all(encoded):
    """Decode what :func:`encode_all` produced into ``(key, summary)`` pairs."""
    terms = {}
    build_rows(0, encoded["rows"], terms)
    return [decode_cache_entry(data, terms) for data in encoded["entries"]]


def assert_terms_released(live):
    """The caller dropped its caches and results: their terms must be gone.

    This is the in-process stand-in for a fresh process lifetime: with the
    intern table shrunk below ``live`` (its size while they were held), a
    later decode cannot find those terms and rebuilds them from the payload.
    """
    gc.collect()
    assert interned_count() < live


def _entries_for(program, procedure_name):
    cache = SummaryCache()
    symbolic_execute(program, procedure_name=procedure_name, summary_cache=cache)
    encoded = encode_all(cache.iter_entries())
    assert encoded["entries"], "expected at least one serializable cache entry"
    live = interned_count()
    del cache
    assert_terms_released(live)
    return encoded


def test_decoder_builds_each_binding_once_per_file():
    """Decoded write lists share one pair object per distinct binding."""
    program = update_modified_program()
    encoded = _entries_for(program, "update")
    terms = {}
    build_rows(0, encoded["rows"], terms)
    decoder = EntryDecoder(terms)
    bindings = [
        binding
        for data in encoded["entries"]
        for record in decoder.entry(data)[1].records
        for binding in record.writes
    ]
    distinct = {(name, id(term)) for name, term in bindings}
    assert len(distinct) < len(bindings)
    assert len({id(binding) for binding in bindings}) == len(distinct)


def test_cache_entry_round_trip_rebuilds_equal_keys():
    program = update_modified_program()
    for key1, summary1 in decode_all(_entries_for(program, "update")):
        # Encoding the decoded entry and decoding again is a fixed point.
        re_encoded = encode_all([(key1, summary1)])
        [(key2, summary2)] = decode_all(re_encoded)
        assert key1 == key2
        assert summary1 == summary2


SEGMENT_ERROR_SOURCE = """
proc check(int s) {
    int v = 0;
    assert s != 3;
    if (s > 0) { v = 1; }
    return v;
}

proc main(int a, int b) {
    int x = 0;
    int y = 0;
    if (b > 0) { y = 1; }
    x = check(a);
    y = y + x;
}
"""


def test_suffix_and_segment_entries_share_one_layout():
    """A suffix entry and a segment entry -- one holding the error path of
    the callee's failing assert -- encode to the one summary layout
    ``[procedure, digest, records, strategy_after]``, each record
    ``[constraints, writes, trace, is_error, removed]``, and decode back to
    equal entries; only the key's kind tells them apart."""
    cache = SummaryCache()
    symbolic_execute(
        parse_program(SEGMENT_ERROR_SOURCE), procedure_name="main", summary_cache=cache
    )
    entries = list(cache.iter_entries())
    assert {key[0] for key, _ in entries} == {"suffix", "segment"}
    assert any(
        record.is_error
        for key, summary in entries
        if key[0] == "segment"
        for record in summary.records
    )
    encoded = encode_all(entries)
    for (key, summary), data in zip(entries, encoded["entries"]):
        procedure, digest, records, _strategy_after = data[-1]
        assert (data[1], procedure, digest) == (key[0], summary.procedure, summary.digest)
        assert [len(record) for record in records] == [5] * len(summary.records)
        assert [record[3] for record in records] == [r.is_error for r in summary.records]
    assert decode_all(encoded) == entries

def test_summary_replay_bit_identical_after_cross_process_round_trip(tmp_path):
    """The acceptance property: a summary that crossed a *real* process
    fence replays exactly what the in-process original replays."""
    program = update_modified_program()
    entries = _entries_for(program, "update")

    # Ship the entries through a separate Python process that decodes them
    # (re-interning in its own intern table) and re-encodes them against a
    # table of its own.
    script = (
        "import json, sys\n"
        "from tests.parallel.test_serialize import decode_all, encode_all\n"
        "json.dump(encode_all(decode_all(json.load(sys.stdin))), sys.stdout)\n"
    )
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(entries),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    shipped = json.loads(proc.stdout)
    assert len(shipped["entries"]) == len(entries["entries"])

    def run_with(encoded_entries):
        # Returns plain strings plus the intern-table size while the run's
        # cache and result were alive; both die on return, so the next run
        # decodes in a fresh lifetime and must rebuild every term.
        cache = SummaryCache()
        for key, summary in decode_all(encoded_entries):
            cache.adopt(key, summary)
        result = symbolic_execute(program, procedure_name="update", summary_cache=cache)
        assert result.statistics.summary_cache_hits > 0, "warm cache must replay"
        records = [
            (str(r.path_condition), tuple(map(str, r.final_environment)), r.trace, r.is_error)
            for r in result.summary.records
        ]
        return records, interned_count()

    in_process, live = run_with(entries)
    assert_terms_released(live)
    cross_process, live = run_with(shipped)
    assert_terms_released(live)
    native = [
        (str(r.path_condition), tuple(map(str, r.final_environment)), r.trace, r.is_error)
        for r in symbolic_execute(program, procedure_name="update").summary.records
    ]
    assert in_process == cross_process == native
