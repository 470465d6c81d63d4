"""Structural serialization of terms and summary-cache entries.

Terms are hash-consed per process: a term's ``term_id`` (and the
``id()``-based intern-table keys behind it) are meaningless in any other
process, and -- since interning is weak -- even in the *same* process once
the term's last reference dies.  Anything written to disk therefore encodes
term **trees** (structure only) and rebuilds them on decode through the
term constructors, so the decoded value is the reading process's canonical
instance and id-keyed caches keep working.

The codec produces JSON-compatible data (dicts, lists, strings, ints,
bools, None); it backs the on-disk
:class:`~repro.parallel.store.PersistentSummaryStore` and the test fixtures
that pin the format.

Every container is a tagged list (``["T", ...]`` tuple, ``["F", ...]``
frozenset, ...), so arbitrary strategy replay tokens -- nested tuples of
frozensets, bools and ints -- round-trip exactly.  Terms use their own tags
mirroring the intern-table key shapes (``["i", 5]``, ``["y", "x", "int"]``,
``["o", "+", ..., ...]``).

Summary-cache entries need one extra step: their keys embed *term ids*
(the environment fingerprint), which are resolved back to term trees via
the entry's pinned terms on encode and read off the rebuilt terms on
decode.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.solver.terms import (
    BinaryTerm,
    BoolConst,
    IntConst,
    NegTerm,
    NotTerm,
    Symbol,
    Term,
)
from repro.symexec.summary_cache import (
    CacheKey,
    CallRecord,
    CallSummary,
    ReplayRecord,
    SegmentRecord,
    SegmentSummary,
    SubtreeSummary,
)


class SerializationError(Exception):
    """Raised when a value cannot be encoded or a payload cannot be decoded."""


# -- terms ---------------------------------------------------------------------

#: Tags used for term nodes; chosen disjoint from the container tags below.
_TERM_TAGS = {"i", "b", "y", "o", "!", "~"}


def encode_term(term: Term) -> list:
    """Encode one term as a nested tagged list (pure structure, no ids)."""
    if isinstance(term, IntConst):
        return ["i", term.value]
    if isinstance(term, BoolConst):
        return ["b", term.value]
    if isinstance(term, Symbol):
        return ["y", term.name, term.symbol_sort]
    if isinstance(term, BinaryTerm):
        return ["o", term.op, encode_term(term.left), encode_term(term.right)]
    if isinstance(term, NotTerm):
        return ["!", encode_term(term.operand)]
    if isinstance(term, NegTerm):
        return ["~", encode_term(term.operand)]
    raise SerializationError(f"Cannot encode term of type {type(term).__name__}")


def decode_term(data) -> Term:
    """Decode a term tree into *this* process's canonical instances."""
    if not isinstance(data, list) or not data:
        raise SerializationError(f"Malformed term payload: {data!r}")
    tag = data[0]
    if tag == "i":
        return IntConst(data[1])
    if tag == "b":
        return BoolConst(bool(data[1]))
    if tag == "y":
        return Symbol(data[1], data[2])
    if tag == "o":
        return BinaryTerm(data[1], decode_term(data[2]), decode_term(data[3]))
    if tag == "!":
        return NotTerm(decode_term(data[1]))
    if tag == "~":
        return NegTerm(decode_term(data[1]))
    raise SerializationError(f"Unknown term tag {tag!r}")


# -- generic values (strategy tokens, nested containers) -----------------------


def encode_value(value) -> object:
    """Encode a scalar/container/term value (strategy tokens, snapshots)."""
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, Term):
        return ["t", encode_term(value)]
    if isinstance(value, tuple):
        return ["T"] + [encode_value(item) for item in value]
    if isinstance(value, list):
        return ["L"] + [encode_value(item) for item in value]
    if isinstance(value, frozenset):
        return ["F"] + sorted((encode_value(item) for item in value), key=repr)
    if isinstance(value, set):
        return ["S"] + sorted((encode_value(item) for item in value), key=repr)
    if isinstance(value, dict):
        return ["D"] + [
            [encode_value(key), encode_value(item)] for key, item in sorted(value.items(), key=lambda kv: repr(kv[0]))
        ]
    raise SerializationError(f"Cannot encode value of type {type(value).__name__}")


def decode_value(data) -> object:
    if data is None or isinstance(data, (bool, int, str, float)):
        return data
    if not isinstance(data, list) or not data:
        raise SerializationError(f"Malformed value payload: {data!r}")
    tag, rest = data[0], data[1:]
    if tag == "t":
        return decode_term(rest[0])
    if tag == "T":
        return tuple(decode_value(item) for item in rest)
    if tag == "L":
        return [decode_value(item) for item in rest]
    if tag == "F":
        return frozenset(decode_value(item) for item in rest)
    if tag == "S":
        return {decode_value(item) for item in rest}
    if tag == "D":
        return {decode_value(key): decode_value(item) for key, item in rest}
    raise SerializationError(f"Unknown value tag {tag!r}")


# -- summary-cache entries -----------------------------------------------------


def _encode_writes(writes: Tuple[Tuple[str, Term], ...]) -> list:
    return [[name, encode_term(term)] for name, term in writes]


def _decode_writes(data) -> Tuple[Tuple[str, Term], ...]:
    return tuple((name, decode_term(term)) for name, term in data)


def encode_summary(summary) -> dict:
    """Encode a :class:`SubtreeSummary` or :class:`SegmentSummary`."""
    if isinstance(summary, SubtreeSummary):
        return {
            "kind": "subtree",
            "procedure": summary.procedure,
            "digest": summary.digest,
            "records": [
                {
                    "constraints": [encode_term(t) for t in record.constraints],
                    "writes": _encode_writes(record.writes),
                    "trace": list(record.trace),
                    "is_error": record.is_error,
                    "removed": list(record.removed),
                }
                for record in summary.records
            ],
            "strategy_after": encode_value(summary.strategy_after),
        }
    if isinstance(summary, SegmentSummary):
        return {
            "kind": "segment",
            "procedure": summary.procedure,
            "digest": summary.digest,
            "records": [
                {
                    "constraints": [encode_term(t) for t in record.constraints],
                    "writes": _encode_writes(record.writes),
                    "trace": list(record.trace),
                    "depth_delta": record.depth_delta,
                    "is_error": record.is_error,
                    "removed": list(record.removed),
                }
                for record in summary.records
            ],
        }
    if isinstance(summary, CallSummary):
        return {
            "kind": "call",
            "procedure": summary.procedure,
            "digest": summary.digest,
            "params": list(summary.params),
            "cfg_size": summary.cfg_size,
            "records": [
                {
                    "constraints": [encode_term(t) for t in record.constraints],
                    "writes": _encode_writes(record.writes),
                    "trace": list(record.trace),
                    "is_error": record.is_error,
                }
                for record in summary.records
            ],
        }
    raise SerializationError(f"Cannot encode summary of type {type(summary).__name__}")


def decode_summary(data):
    kind = data.get("kind")
    if kind == "subtree":
        return SubtreeSummary(
            procedure=data["procedure"],
            digest=data["digest"],
            records=tuple(
                ReplayRecord(
                    constraints=tuple(decode_term(t) for t in record["constraints"]),
                    writes=_decode_writes(record["writes"]),
                    trace=tuple(record["trace"]),
                    is_error=record["is_error"],
                    removed=tuple(record.get("removed", ())),
                )
                for record in data["records"]
            ),
            strategy_after=decode_value(data["strategy_after"]),
        )
    if kind == "segment":
        return SegmentSummary(
            procedure=data["procedure"],
            digest=data["digest"],
            records=tuple(
                SegmentRecord(
                    constraints=tuple(decode_term(t) for t in record["constraints"]),
                    writes=_decode_writes(record["writes"]),
                    trace=tuple(record["trace"]),
                    depth_delta=record["depth_delta"],
                    is_error=record["is_error"],
                    removed=tuple(record.get("removed", ())),
                )
                for record in data["records"]
            ),
        )
    if kind == "call":
        return CallSummary(
            procedure=data["procedure"],
            digest=data["digest"],
            records=tuple(
                CallRecord(
                    constraints=tuple(decode_term(t) for t in record["constraints"]),
                    writes=_decode_writes(record["writes"]),
                    trace=tuple(record["trace"]),
                    is_error=record["is_error"],
                )
                for record in data["records"]
            ),
            params=tuple(data["params"]),
            cfg_size=data["cfg_size"],
        )
    raise SerializationError(f"Unknown summary kind {kind!r}")


def encode_cache_entry(key: CacheKey, summary, pins: Tuple[Term, ...]) -> dict:
    """Encode one summary-cache entry structurally.

    The key's environment fingerprint holds ``(name, term id)`` pairs; the
    ids are resolved to term trees through the entry's pinned terms (the
    recording root's environment, a superset of every fingerprinted value).
    An id no pin resolves is a hard error -- silently dropping the name
    would produce a key that can never have existed.
    """
    kind, digest, fingerprint, token, budget = key
    by_id = {pin.term_id: pin for pin in pins}
    encoded_fingerprint = []
    for name, value_id in fingerprint:
        # Plain environment entries use string names; call-frame entries use
        # tuple names like ("@saved", depth, var) which need the tagged
        # container encoding to round-trip as tuples.
        encoded_name = encode_value(name)
        if value_id == -1:
            encoded_fingerprint.append([encoded_name, None])
            continue
        term = by_id.get(value_id)
        if term is None:
            raise SerializationError(
                f"Fingerprint id {value_id} for {name!r} is not covered by the entry's pins"
            )
        encoded_fingerprint.append([encoded_name, encode_term(term)])
    return {
        "kind": kind,
        "digest": digest,
        "fingerprint": encoded_fingerprint,
        "token": encode_value(token),
        "budget": budget,
        "summary": encode_summary(summary),
    }


def decode_cache_entry(data) -> Tuple[CacheKey, object, Tuple[Term, ...]]:
    """Decode one entry; returns ``(key, summary, pins)`` for adoption.

    The fingerprint's term trees are rebuilt here, so the rebuilt key uses
    *this* process's term ids; the decoded terms are returned as the
    entry's pins so those ids stay alive for as long as the entry can hit.
    """
    pins: List[Term] = []
    fingerprint = []
    for encoded_name, encoded in data["fingerprint"]:
        name = decode_value(encoded_name)
        if encoded is None:
            fingerprint.append((name, -1))
            continue
        term = decode_term(encoded)
        pins.append(term)
        fingerprint.append((name, term.term_id))
    key: CacheKey = (
        data["kind"],
        data["digest"],
        tuple(fingerprint),
        decode_value(data["token"]),
        data["budget"],
    )
    return key, decode_summary(data["summary"]), tuple(pins)


def encode_cache_entries(entries) -> list:
    """Encode an iterable of ``(key, summary, pins)`` triples.

    Entries whose fingerprint ids cannot be resolved from their pins are
    skipped (they could never be rebuilt by a reader); everything else is
    encoded structurally.
    """
    from repro import faults

    plan = faults.active_plan()
    encoded = []
    for index, (key, summary, pins) in enumerate(entries):
        try:
            entry = encode_cache_entry(key, summary, pins)
        except SerializationError:
            continue
        if plan is not None and plan.fires(
            "corrupt-frame", f"entry{index}:{key[1]}"
        ):
            # Fault site ``corrupt-frame``: mangle this entry's serialized
            # form (models a frame corrupted mid-encode).  The decoder must
            # reject it -- the store's load skips it, counted; it may never
            # be adopted.
            entry = dict(entry)
            entry.pop("summary", None)
            entry["kind"] = "corrupt"
        encoded.append(entry)
    return encoded
