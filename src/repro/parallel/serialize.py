"""Process-portable encoding of terms and summary-cache entries.

Terms are hash-consed per process: a term's ``term_id`` (and the
``id()``-based intern-table keys behind it) are meaningless in any other
process, and -- since interning is weak -- even in the *same* process once
the term's last reference dies.  Anything written to disk therefore
describes term **structure** and rebuilds it on decode through the term
constructors, so the decoded value is the reading process's canonical
instance and term-keyed caches keep working.

Structure is written as a **term table**: each distinct term is one row
``[tag, payload, child ids...]`` whose children are earlier rows
(``["i", 5]``, ``["y", "x", "int"]``, ``["o", "+", 3, 7]``, ``["!", 4]``,
``["~", 2]``).  Everything else refers to terms by row id.  A
:class:`TermTable` assigns the ids on the writing side -- one row per
distinct term, so equal content always encodes to equal bytes -- and
:func:`build_rows` rebuilds rows on the reading side with one constructor
call each, in id order.  The on-disk
:class:`~repro.parallel.store.PersistentSummaryStore` keeps one table per
file.

Other values are JSON-compatible data (lists, strings, ints, bools, None).
Every container is a tagged list (``["T", ...]`` tuple, ``["F", ...]``
frozenset, ...) and a term inside one is ``["t", row id]``, so arbitrary
strategy replay tokens -- nested tuples of frozensets, bools and ints --
round-trip exactly.

A summary-cache entry is one list ``["e", kind, digest, fingerprint,
token, budget, summary]``.  Its key's environment fingerprint holds
``(name, term)`` pairs; each term is written as its row id (``None`` for an
unbound name) and decoded back to the rebuilt term.  Suffix and segment
summaries share one layout, ``[procedure, digest, records,
strategy_after]`` (:func:`encode_summary`): the key's ``kind`` already
says which of the two an entry is.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.solver.terms import (
    BinaryTerm,
    BoolConst,
    IntConst,
    NegTerm,
    NotTerm,
    Symbol,
    Term,
)
from repro.symexec.summary_cache import CacheKey, ReplayRecord, SubtreeSummary


class SerializationError(Exception):
    """Raised when a value cannot be encoded or a payload cannot be decoded."""


# -- the term table ------------------------------------------------------------


class TermTable:
    """The writing side of one term table: each distinct term's row id.

    ``ids`` maps a row (as a tuple) to its id and holds no term objects, so
    a table kept between dumps keeps no term alive.  Rows read back from a
    file go in through :meth:`add_rows`; :meth:`ref` allocates the rows a
    new term needs, children first, and :meth:`take_rows` hands them out
    for writing.
    """

    def __init__(self):
        self.ids: Dict[tuple, int] = {}
        self.next_id = 0
        self._new_rows: List[tuple] = []
        #: term -> row id for the current encoding session; cleared by
        #: :meth:`forget_terms` so the table does not keep terms alive.
        self._memo: Dict[Term, int] = {}

    def add_rows(self, first_id: int, rows: List[list]) -> None:
        """Register rows ``first_id, first_id + 1, ...`` read from a file."""
        ids = self.ids
        for offset, row in enumerate(rows):
            ids.setdefault(tuple(row), first_id + offset)
        self.next_id = max(self.next_id, first_id + len(rows))

    def ref(self, term: Term) -> int:
        """The row id of ``term``, allocating rows for it and its children."""
        ident = self._memo.get(term)
        if ident is not None:
            return ident
        if isinstance(term, BinaryTerm):
            row = ("o", term.op, self.ref(term.left), self.ref(term.right))
        elif isinstance(term, Symbol):
            row = ("y", term.name, term.symbol_sort)
        elif isinstance(term, IntConst):
            row = ("i", term.value)
        elif isinstance(term, BoolConst):
            row = ("b", term.value)
        elif isinstance(term, NotTerm):
            row = ("!", self.ref(term.operand))
        elif isinstance(term, NegTerm):
            row = ("~", self.ref(term.operand))
        else:
            raise SerializationError(f"Cannot encode term of type {type(term).__name__}")
        ident = self.ids.get(row)
        if ident is None:
            ident = self.ids[row] = self.next_id
            self.next_id += 1
            self._new_rows.append(row)
        self._memo[term] = ident
        return ident

    def take_rows(self) -> Tuple[int, List[tuple]]:
        """``(first id, rows)`` allocated since the last call, in id order."""
        rows, self._new_rows = self._new_rows, []
        return self.next_id - len(rows), rows

    def forget_terms(self) -> None:
        self._memo.clear()


def build_rows(first_id: int, rows: Iterable[list], terms: Dict[int, Term]) -> None:
    """Rebuild rows ``first_id, first_id + 1, ...`` into ``terms`` (id -> term).

    A row whose child is missing from ``terms`` (its own row was lost to a
    damaged record) is left out, so everything that refers to it fails to
    decode instead of decoding to a different term.
    """
    for ident, row in enumerate(rows, first_id):
        try:
            tag = row[0]
            if tag == "o":
                term = BinaryTerm(row[1], terms[row[2]], terms[row[3]])
            elif tag == "y":
                term = Symbol(row[1], row[2])
            elif tag == "i":
                term = IntConst(row[1])
            elif tag == "b":
                term = BoolConst(bool(row[1]))
            elif tag == "!":
                term = NotTerm(terms[row[1]])
            elif tag == "~":
                term = NegTerm(terms[row[1]])
            else:
                continue
        except (KeyError, IndexError, TypeError):
            continue
        terms[ident] = term


# -- generic values (strategy tokens, nested containers) -----------------------


def encode_value(value, table: TermTable) -> object:
    """Encode a scalar/container/term value (strategy tokens, call-frame names)."""
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, Term):
        return ["t", table.ref(value)]
    if isinstance(value, tuple):
        return ["T"] + [encode_value(item, table) for item in value]
    if isinstance(value, list):
        return ["L"] + [encode_value(item, table) for item in value]
    if isinstance(value, frozenset):
        return ["F"] + sorted((encode_value(item, table) for item in value), key=repr)
    if isinstance(value, set):
        return ["S"] + sorted((encode_value(item, table) for item in value), key=repr)
    if isinstance(value, dict):
        return ["D"] + [
            [encode_value(key, table), encode_value(item, table)]
            for key, item in sorted(value.items(), key=lambda kv: repr(kv[0]))
        ]
    raise SerializationError(f"Cannot encode value of type {type(value).__name__}")


def decode_value(data, terms: Dict[int, Term]) -> object:
    if not isinstance(data, list):
        if data is None or isinstance(data, (bool, int, str, float)):
            return data
        raise SerializationError(f"Malformed value payload: {data!r}")
    if not data:
        raise SerializationError("Empty value payload")
    tag = data[0]
    if tag == "t":
        return terms[data[1]]
    if tag == "D":
        return {decode_value(key, terms): decode_value(item, terms) for key, item in data[1:]}
    # Scalars decode to themselves; only nested lists need the recursion.
    items = [
        decode_value(item, terms) if isinstance(item, list) else item for item in data[1:]
    ]
    if tag == "T":
        return tuple(items)
    if tag == "L":
        return items
    if tag == "F":
        return frozenset(items)
    if tag == "S":
        return set(items)
    raise SerializationError(f"Unknown value tag {tag!r}")


# -- summaries -----------------------------------------------------------------


def _encode_writes(writes: Tuple[Tuple[str, Term], ...], ref) -> list:
    return [[name, ref(term)] for name, term in writes]


def encode_summary(summary: SubtreeSummary, table: TermTable) -> list:
    """Encode a summary as ``[procedure, digest, records, strategy_after]``.

    Suffix and segment summaries share the layout; the entry's key kind
    tells them apart.  A record is ``[constraints, writes, trace, is_error,
    removed]``.
    """
    ref = table.ref
    return [
        summary.procedure,
        summary.digest,
        [
            [
                [ref(t) for t in record.constraints],
                _encode_writes(record.writes, ref),
                list(record.trace),
                record.is_error,
                list(record.removed),
            ]
            for record in summary.records
        ],
        encode_value(summary.strategy_after, table),
    ]


class EntryDecoder:
    """Decodes entries against one file's rebuilt term rows.

    Equal records recur across a file's entries (a nested root's subtree
    repeats paths of its parent's), and equal constraint and write lists
    recur far more often.  The decoder hands out one shared, immutable
    instance per distinct record, per distinct constraint or write list
    and per distinct ``(name, term)`` binding, so a load allocates a
    fraction of the objects a per-entry decode would, and decoded write
    lists share their pairs the way recorded ones do.
    """

    def __init__(self, terms: Dict[int, Term]):
        self.terms = terms
        self._records: Dict[tuple, ReplayRecord] = {}
        self._constraints: Dict[tuple, Tuple[Term, ...]] = {}
        self._writes: Dict[tuple, Tuple[Tuple[str, Term], ...]] = {}
        self._bindings: Dict[Tuple[str, int], Tuple[str, Term]] = {}

    def _binding(self, name: str, ident: int) -> Tuple[str, Term]:
        """The shared ``(name, term)`` pair of one ``(name, row id)`` binding."""
        key = (name, ident)
        binding = self._bindings.get(key)
        if binding is None:
            binding = self._bindings[key] = (name, self.terms[ident])
        return binding

    def _record(self, constraints, writes, trace, is_error, removed) -> ReplayRecord:
        """The shared record of one encoded record's fields."""
        constraint_ids = tuple(constraints)
        write_ids = tuple([item for pair in writes for item in pair])
        key = (constraint_ids, write_ids, tuple(trace), is_error, tuple(removed))
        record = self._records.get(key)
        if record is None:
            terms = self.terms
            shared_constraints = self._constraints.get(constraint_ids)
            if shared_constraints is None:
                shared_constraints = self._constraints[constraint_ids] = tuple(
                    [terms[ident] for ident in constraint_ids]
                )
            shared_writes = self._writes.get(write_ids)
            if shared_writes is None:
                shared_writes = self._writes[write_ids] = tuple(
                    [self._binding(name, ident) for name, ident in writes]
                )
            record = self._records[key] = ReplayRecord(shared_constraints, shared_writes, *key[2:])
        return record

    def summary(self, data) -> SubtreeSummary:
        procedure, digest, records, strategy_after = data
        record = self._record
        return SubtreeSummary(
            procedure,
            digest,
            tuple([record(*fields) for fields in records]),
            decode_value(strategy_after, self.terms),
        )

    def entry(self, data) -> Tuple[CacheKey, SubtreeSummary]:
        """Decode one entry; returns ``(key, summary)`` for adoption.

        The fingerprint's terms come from the table, so the rebuilt key holds
        *this* process's canonical instances.
        """
        tag, kind, digest, encoded_fingerprint, token, budget, summary = data
        if tag != "e":
            raise SerializationError(f"Not a cache entry: {tag!r}")
        terms = self.terms
        fingerprint = tuple(
            [
                (decode_value(name, terms), None if ident is None else terms[ident])
                for name, ident in encoded_fingerprint
            ]
        )
        key: CacheKey = (kind, digest, fingerprint, decode_value(token, terms), budget)
        return key, self.summary(summary)


# -- summary-cache entries -----------------------------------------------------


def encode_cache_entry(key: CacheKey, summary, table: TermTable) -> list:
    """Encode one summary-cache entry against ``table``.

    The key's environment fingerprint holds ``(name, term)`` pairs, ``term``
    being None for an unbound name.
    """
    kind, digest, fingerprint, token, budget = key
    # Plain environment entries use string names; call-frame entries use
    # tuple names like ("@saved", depth, var), which need the tagged
    # container encoding to round-trip as tuples.
    encoded_fingerprint = [
        [encode_value(name, table), None if term is None else table.ref(term)]
        for name, term in fingerprint
    ]
    return [
        "e",
        kind,
        digest,
        encoded_fingerprint,
        encode_value(token, table),
        budget,
        encode_summary(summary, table),
    ]


def decode_cache_entry(data, terms: Dict[int, Term]) -> Tuple[CacheKey, SubtreeSummary]:
    """Decode one entry against ``terms`` (see :meth:`EntryDecoder.entry`)."""
    return EntryDecoder(terms).entry(data)


def encode_cache_entries(entries, table: TermTable) -> Iterator[list]:
    """Encode ``(key, summary)`` pairs against ``table``, lazily.

    After each yielded entry, ``table.take_rows()`` returns the rows it
    introduced.
    """
    from repro import faults

    plan = faults.active_plan()
    for index, (key, summary) in enumerate(entries):
        entry = encode_cache_entry(key, summary, table)
        if plan is not None and plan.fires("corrupt-frame", f"entry{index}:{key[1]}"):
            # Fault site ``corrupt-frame``: mangle this entry's encoded form
            # (models a frame corrupted mid-encode).  The decoder must reject
            # it -- the store's load skips it, counted; it may never be
            # adopted.
            entry = entry[:-1]
            entry[1] = "corrupt"
        yield entry
