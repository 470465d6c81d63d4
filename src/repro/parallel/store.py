"""A persistent, process-portable, crash-safe summary store.

The :class:`~repro.symexec.summary_cache.SummaryCache` is in-memory and
per-process; its keys embed intern ids that are process- *and* lifetime-
local (interning is weak).  A :class:`PersistentSummaryStore` writes the
cache's entries structurally, via :mod:`repro.parallel.serialize`, so a
later :class:`~repro.evolution.history.VersionHistoryRunner` in a fresh
process (or a fresh CI job restoring a cached file) resumes warm: entries
are re-interned on load and replay exactly as they would have in the
recording process.

Format (version 8).  The first line is the header ``{"format":8}``.  Every
following line is one record: the sha256 of its payload bytes in hex, a
space, then the payload, a JSON list whose first element names one of two
kinds:

* ``["t", first id, row, row, ...]`` -- term-table rows (see
  :class:`~repro.parallel.serialize.TermTable`).  The file holds one table:
  each distinct term has exactly one row, written before the first record
  that refers to it.
* ``["e", kind, digest, fingerprint, token, budget, summary]`` -- one
  summary-cache entry, referring to terms by row id; ``kind`` is
  ``"suffix"`` or ``"segment"``, and both kinds write the one summary
  layout ``[procedure, digest, records, strategy_after]``.  Because a term
  has one row per file, equal entries are equal bytes, and the record hash
  deduplicates them.

Properties:

* **Checksums over the written bytes.**  A line counts only when its hash
  matches its payload bytes as written; nothing is re-rendered.  A line
  that does not match, or a record that does not decode, is skipped and
  counted (``skipped_entries``), never adopted: damage costs warm-start
  entries, never correctness.  A term row lost to a damaged line takes
  down only the entries that refer to it, and no later row ever reuses its
  id (:meth:`_FileView.scan`).
* **Append-only dumps.**  :meth:`PersistentSummaryStore.dump` runs under an
  exclusive lock file.  It catches up on the records other writers
  appended since this object last read the file, truncates a torn tail
  back to the end of the last intact record, and appends only the new term
  rows and the entries whose bytes are not on disk yet.  An entry whose
  key this object loaded from the same file is not even re-encoded -- a
  store-origin entry, or one recorded again after the cache evicted it --
  since a reader adopts only the first record of a key.  Concurrent
  :class:`VersionHistoryRunner` processes sharing one path therefore union
  their entries, and a resume that records nothing new leaves the file
  byte-identical.  The temp-file + ``os.replace`` write is used only to
  create a file or to replace one whose header is missing or unusable.
* **Eager decoding.**  :meth:`PersistentSummaryStore.load_into` reads the
  file once and decodes every entry before the analysis starts: the table
  makes decoding one constructor call per distinct term, and keeping it
  out of the analysis keeps the store's cost out of every timed
  ``DiSE.run`` and ``SymbolicExecutor.run`` (a lazy per-key index would
  move it there).  Entries are parsed and decoded one at a time, and equal
  records are decoded once (:class:`~repro.parallel.serialize.EntryDecoder`),
  so a load keeps few objects alive beyond the summaries it adopts.

A store whose header is missing or carries any other format number
(formats 2-7 included) is ignored rather than trusted -- nothing is loaded
and nothing is counted as skipped -- and the next dump replaces it: a stale
cache file must never break or skew a run, it can only fail to warm it.
Format 8 is format 7 without its ``["c", state]`` cost-model records, which
nothing in the analysis read.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro import faults
from repro.parallel.serialize import (
    EntryDecoder,
    SerializationError,
    TermTable,
    build_rows,
    decode_cache_entry,
    encode_cache_entries,
    encode_cache_entry,
)
from repro.solver.terms import Term
from repro.symexec.summary_cache import SummaryCache

try:
    import fcntl
except ImportError:  # non-POSIX platform: dumps proceed unlocked
    fcntl = None

#: Bump when the record shapes change; stores of any other format are ignored.
STORE_FORMAT = 8

_HEADER = json.dumps({"format": STORE_FORMAT}, separators=(",", ":")).encode() + b"\n"

#: How each record kind's payload begins.
_TERMS = b'["t",'
_ENTRY = b'["e",'

#: Errors a hash-intact record can still raise while being decoded (a
#: corrupt frame, or a reference to a term row lost to a damaged line).
_DECODE_ERRORS = (SerializationError, KeyError, TypeError, IndexError, ValueError)


def _render(payload) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _record_line(payload: bytes) -> Tuple[bytes, bytes]:
    """``(hash, line)`` for one record: the line is ``<hash> <payload>\\n``."""
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    return digest, b"".join((digest, b" ", payload, b"\n"))


def _usable_header(line: bytes) -> bool:
    """Whether ``line`` is a complete header line of this format."""
    if not line.endswith(b"\n"):
        return False
    try:
        header = json.loads(line)
    except ValueError:
        return False
    return isinstance(header, dict) and header.get("format") == STORE_FORMAT


def _file_stat(stat) -> Tuple[int, int, int, int]:
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


def merge_encoded_entries_counted(
    cache: SummaryCache, encoded_entries: Iterable, terms: Dict[int, Term], keys=None
) -> Tuple[int, int]:
    """Decode stored entries against ``terms`` into ``cache``; returns
    ``(adopted, skipped)``.

    ``skipped`` counts entries that failed to decode (corrupt frames,
    references to lost term rows): a damaged store degrades to a colder
    cache, never to a failed run.  Keys already present are neither adopted
    nor skipped -- the cache's own entry wins.  Adopted entries are store
    entries, so their hits count as store hits.  ``keys``, when given,
    receives the key of every entry that decoded.
    """
    decoder = EntryDecoder(terms)
    adopted = 0
    skipped = 0
    for data in encoded_entries:
        try:
            key, summary = decoder.entry(data)
        except _DECODE_ERRORS:
            skipped += 1
            continue
        if keys is not None:
            keys.add(key)
        if cache.adopt(key, summary):
            adopted += 1
    return adopted, skipped


class _FileView:
    """What this process knows of one store file's intact records.

    A load builds it in one pass; a dump extends it with the records other
    writers appended since, then with its own.
    """

    def __init__(self, header: bytes):
        self.header = header
        #: Byte offset just past the last intact record.
        self.end = len(header)
        self.table = TermTable()
        #: Record hashes of the entries on disk.
        self.entries: Set[bytes] = set()
        #: ``(st_dev, st_ino, st_size, st_mtime_ns)`` when last in sync.
        self.stat: Optional[Tuple[int, int, int, int]] = None
        #: Damaged lines seen so far.
        self.skipped = 0

    def scan(self, data: bytes, terms=None, parse: bool = False):
        """Fold in the records of ``data``, the file's bytes from
        :attr:`end` on; yields ``(record hash, entry)`` per intact entry
        record, the entry parsed when ``parse`` is set and None otherwise.

        ``terms`` (row id -> term), when given, receives the rebuilt term
        rows.  Damaged lines are counted in :attr:`skipped`.  A damaged line
        may have held term rows that later intact records refer to, so once
        an intact record follows it, the next free row id moves past every
        id its bytes could have held: a lost row's id is never given to
        another term.
        """
        base = self.end
        damaged = 0
        table = self.table
        size = len(data)
        position = 0
        while position < size:
            newline = data.find(b"\n", position)
            if newline < 0:
                self.skipped += 1  # a torn tail: the last record lacks its newline
                return
            line = data[position:newline]
            position = newline + 1
            digest = line[:64]
            payload = line[65:]
            kind = payload[:5]
            try:
                if line[64:65] != b" " or hashlib.sha256(payload).hexdigest().encode() != digest:
                    raise ValueError("checksum mismatch")
                table.next_id += damaged
                damaged = 0
                if kind == _ENTRY:
                    entry = json.loads(payload) if parse else None
                    self.entries.add(digest)
                elif kind == _TERMS:
                    record = json.loads(payload)
                    first_id, rows = record[1], record[2:]
                    table.add_rows(first_id, rows)
                    if terms is not None:
                        build_rows(first_id, rows, terms)
                else:
                    raise ValueError("unknown record kind")
            except (ValueError, TypeError, IndexError):
                self.skipped += 1
                damaged += len(line) + 1
                continue
            self.end = base + position
            if kind == _ENTRY:
                yield digest, entry

    def absorb(self, data: bytes) -> None:
        """:meth:`scan` without looking at the entries."""
        for _ in self.scan(data):
            pass


class PersistentSummaryStore:
    """Dump/load a :class:`SummaryCache` to and from one store file."""

    def __init__(self, path: str):
        self.path = os.fspath(path)
        #: Entries dropped by the most recent :meth:`load_into`: damaged
        #: lines and entries that failed to decode.  Surfaced so callers
        #: (benchmarks, history reports) can assert a healthy store lost
        #: nothing.
        self.skipped_entries = 0
        #: Entries the most recent :meth:`load_into` adopted.
        self.loaded_entries = 0
        self._view: Optional[_FileView] = None
        #: The keys :meth:`load_into` last decoded, and the
        #: ``(st_dev, st_ino)`` of the file they are on.  A key holds its
        #: terms, so a cache entry under one of these keys -- adopted, or
        #: recorded again after an eviction -- is on that file already.
        self._loaded_keys: Set = set()
        self._loaded_from: Optional[Tuple[int, int]] = None

    def exists(self) -> bool:
        return os.path.exists(self.path)

    # -- write -----------------------------------------------------------------

    def dump(self, cache: SummaryCache) -> int:
        """Append ``cache``'s new entries; returns the number of cache
        entries in the store afterwards.

        The catch-up-truncate-append sequence runs under an exclusive lock
        file, so concurrent dumpers serialize and union instead of
        clobbering each other.
        """
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        lock_handle = None
        if fcntl is not None:
            lock_handle = open(self.path + ".lock", "a+")
            fcntl.flock(lock_handle.fileno(), fcntl.LOCK_EX)
        try:
            try:
                handle = open(self.path, "r+b")
            except FileNotFoundError:
                handle = None
            if handle is not None:
                with handle:
                    view = self._catch_up(handle)
                    if view is not None:
                        return self._append(handle, view, cache)
            return self._create(directory, cache)
        except BaseException:
            self._view = None
            raise
        finally:
            if lock_handle is not None:
                fcntl.flock(lock_handle.fileno(), fcntl.LOCK_UN)
                lock_handle.close()

    def _catch_up(self, handle) -> Optional[_FileView]:
        """This object's view, extended by what was appended since it was
        last in sync; a new view when the file is not the one it saw; None
        when the header is missing or unusable."""
        stat = _file_stat(os.fstat(handle.fileno()))
        header = handle.readline()
        view = self._view
        if view is None or view.stat[:2] != stat[:2] or view.header != header or stat[2] < view.end:
            if not _usable_header(header):
                return None
            view = _FileView(header)
        handle.seek(view.end)
        view.absorb(handle.read())
        view.stat = stat
        self._view = view
        return view

    def _append(self, handle, view: _FileView, cache: SummaryCache) -> int:
        if view.stat[2] > view.end:
            handle.truncate(view.end)  # the torn tail goes
        start = view.end
        on_disk = self._loaded_keys if self._loaded_from == view.stat[:2] else ()
        data = b"".join(self._encode(view, cache, on_disk))
        if data:
            handle.seek(start)
            handle.write(data)
            handle.flush()
            view.end += len(data)
        view.stat = _file_stat(os.fstat(handle.fileno()))
        if data:
            self._maybe_tear(start, data)
        return len(view.entries)

    def _create(self, directory: str, cache: SummaryCache) -> int:
        view = _FileView(_HEADER)
        data = b"".join([_HEADER] + self._encode(view, cache, ()))
        handle = tempfile.NamedTemporaryFile(dir=directory, suffix=".tmp", delete=False)
        try:
            with handle:
                handle.write(data)
            os.replace(handle.name, self.path)
        except BaseException:
            if os.path.exists(handle.name):
                os.unlink(handle.name)
            raise
        view.end = len(data)
        view.stat = _file_stat(os.stat(self.path))
        self._view = view
        self._maybe_tear(0, data)
        return len(view.entries)

    def _encode(self, view: _FileView, cache: SummaryCache, on_disk) -> List[bytes]:
        """The lines that bring the file from ``view`` up to ``cache``;
        ``view`` is updated as if they were written.

        Entries under a key in ``on_disk`` are not encoded at all: a reader
        adopts the first record of a key, so another record of it could
        never be adopted.  Every other entry is encoded, and written unless
        its record hash is on disk already."""
        lines = []
        table = view.table
        entries = (entry for entry in cache.iter_entries() if entry[0] not in on_disk)
        try:
            for entry in encode_cache_entries(entries, table):
                first_id, rows = table.take_rows()
                if rows:
                    lines.append(_record_line(_render(["t", first_id, *rows]))[1])
                digest, line = _record_line(_render(entry))
                if digest not in view.entries:
                    view.entries.add(digest)
                    lines.append(line)
        finally:
            table.forget_terms()
        return lines

    def _maybe_tear(self, start: int, data: bytes) -> None:
        """Fault site ``torn-store-write``: truncate what this dump wrote.

        Simulates a torn OS-level write (power loss, killed process before
        the page cache drained) at a roll-derived offset into the bytes
        written from ``start`` on.  The chaos tests then assert that a later
        load salvages every intact record and adopts nothing corrupt.
        """
        plan = faults.active_plan()
        if plan is None or not plan.fires("torn-store-write", self.path):
            return
        offset = int(plan.roll("torn-store-write-at", self.path) * len(data))
        with open(self.path, "r+b") as handle:
            handle.truncate(start + offset)
        self._view = None

    # -- read ------------------------------------------------------------------

    def _open(self) -> Tuple[Optional[_FileView], bytes]:
        """A new view of the file, with nothing scanned yet, and the bytes
        after its header; ``(None, b"")`` when the store is unusable
        (missing file, unreadable or wrong-format header)."""
        try:
            handle = open(self.path, "rb")
        except OSError:
            return None, b""
        with handle:
            stat = _file_stat(os.fstat(handle.fileno()))
            header = handle.readline()
            if not _usable_header(header):
                return None, b""
            data = handle.read()
        view = _FileView(header)
        view.stat = stat
        return view, data

    def load_into(self, cache: SummaryCache) -> int:
        """Adopt the stored entries into ``cache``; returns how many were added.

        Robust by design: a missing file, an unreadable or wrong-format
        header, a truncated tail, a damaged line or a malformed individual
        entry contributes zero entries instead of raising -- persistent
        stores live in CI caches and scratch directories where staleness
        and torn writes are normal.  Casualties are counted in
        ``skipped_entries``.
        """
        adopted = 0
        skipped = 0
        self._loaded_keys = set()
        self._loaded_from = None
        view, data = self._open()
        if view is not None:
            terms: Dict[int, Term] = {}
            entries = (entry for _, entry in view.scan(data, terms, parse=True))
            adopted, undecoded = merge_encoded_entries_counted(
                cache, entries, terms, self._loaded_keys
            )
            skipped = view.skipped + undecoded
            self._view = view
            self._loaded_from = view.stat[:2]
        self.skipped_entries = skipped
        self.loaded_entries = adopted
        return adopted

    def load_cost_model_into(self) -> int:
        """Adopts nothing and returns 0: the store holds no cost-model state.

        It stays only because ``perfbench/ledger.py`` wraps it by name and
        ``perfbench/selfcheck.py`` requires a store resume to call it; it
        goes once the benchmark drops that wrapper (ROADMAP item 1).
        """
        return 0

    def entry_count(self) -> Optional[int]:
        """Number of intact cache-entry records on disk; None when the store
        is unusable."""
        view, data = self._open()
        if view is None:
            return None
        view.absorb(data)
        return len(view.entries)

    def checksums(self) -> Optional[Set[str]]:
        """A content digest per intact entry (None when the store is unusable).

        The digest does not depend on row ids: each entry is decoded and
        re-encoded against a table of its own, so the same entry has the
        same digest in every file, and concurrency tests can prove a union
        lost nothing.  An entry that does not decode (a corrupt frame) is
        named by its record hash.
        """
        view, data = self._open()
        if view is None:
            return None
        terms: Dict[int, Term] = {}
        digests = set()
        for record_hash, entry in view.scan(data, terms, parse=True):
            try:
                table = TermTable()
                entry = encode_cache_entry(*decode_cache_entry(entry, terms), table)
            except _DECODE_ERRORS:
                digests.add(record_hash.decode("ascii"))
                continue
            digests.add(hashlib.sha256(_render([table.take_rows()[1], entry])).hexdigest())
        return digests
