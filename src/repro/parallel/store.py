"""A persistent, process-portable, crash-safe summary store.

The :class:`~repro.symexec.summary_cache.SummaryCache` is in-memory and
per-process; its keys embed intern ids that are process- *and* lifetime-
local (interning is weak).  A :class:`PersistentSummaryStore` writes the
cache's entries structurally, via :mod:`repro.parallel.serialize`, so a
later :class:`~repro.evolution.history.VersionHistoryRunner` in a fresh
process (or a fresh CI job restoring a cached file) resumes warm: entries
are re-interned on load and replay exactly as they would have in the
recording process.

Format (version 6).  The first line is the header ``{"format":6}``.  Every
following line is one record: the sha256 of its payload bytes in hex, a
space, then the payload, a JSON list whose first element names its kind:

* ``["t", first id, row, row, ...]`` -- term-table rows (see
  :class:`~repro.parallel.serialize.TermTable`).  The file holds one table:
  each distinct term has exactly one row, written before the first record
  that refers to it.
* ``["e", kind, digest, fingerprint, token, budget, summary]`` -- one
  summary-cache entry, referring to terms by row id; ``kind`` is
  ``"suffix"`` or ``"segment"``.  Because a term has
  one row per file, equal entries are equal bytes, and the record hash
  deduplicates them.
* ``["c", state]`` -- a :class:`CostModelState` snapshot (see below).

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
(formats 2-5 included) is ignored rather than trusted -- nothing is loaded
and nothing is counted as skipped -- and the next dump replaces it: a stale
cache file must never break or skew a run, it can only fail to warm it.

Nothing in the analysis reads the cost-model state; it round-trips because
the benchmark's ledger (``perfbench/ledger.py``) times
:meth:`PersistentSummaryStore.load_cost_model_into` and
``perfbench/selfcheck.py`` requires a warm store resume to call it.  A dump
that carries a model appends its state merged over the states on disk (its
own values win) unless that is already the latest state; a load adopts the
states newest first, so the latest published state wins and older ones fill
its gaps.  :meth:`~PersistentSummaryStore.load_into` records the states in
its one scan of the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
STORE_FORMAT = 6

_HEADER = json.dumps({"format": STORE_FORMAT}, separators=(",", ":")).encode() + b"\n"

#: How each record kind's payload begins.
_TERMS = b'["t",'
_ENTRY = b'["e",'
_STATE = b'["c",'

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
    nor skipped -- the cache's own entry wins.  Adopted entries are tagged
    ``"store"`` so their hits count as store hits.  ``keys``, when given,
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
        if cache.adopt(key, summary, origin="store"):
            adopted += 1
    return adopted, skipped


#: Default histogram bucket upper bounds, in seconds.  A value larger than
#: every bound lands in the overflow bucket.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
)


class Histogram:
    """Fixed-bound bucket histogram with count/total/min/max.

    Only :class:`CostModelState` uses it: its two persisted histograms
    round-trip through :meth:`as_dict` and :meth:`merge_dict`, and the fence
    estimate is seeded from :meth:`percentile`.
    """

    __slots__ = ("bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS):
        self.bounds: Tuple[float, ...] = tuple(bounds)
        # One bucket per bound plus the overflow bucket.
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        position = len(self.bounds)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                position = index
                break
        self.buckets[position] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def percentile(self, q: float) -> Optional[float]:
        """The q-quantile (``0 <= q <= 1``) estimated from the buckets.

        Exact when every observation was equal (``min == max``); otherwise
        interpolated within the bucket the quantile falls in.  The default
        bounds are log-spaced, so interpolation is geometric (log-linear)
        whenever the bucket's edges are positive -- a linear walk through,
        say, the (0.5, 1.0] bucket would systematically overestimate low
        quantiles of a long-tailed seconds distribution.  Bucket edges are
        clamped to the observed ``min``/``max``, which also bounds the
        otherwise open overflow bucket.  Returns None on an empty histogram.
        """
        if not self.count:
            return None
        if self.min == self.max:
            return self.min
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.count
        cumulative = 0.0
        for index, bucket_count in enumerate(self.buckets):
            if bucket_count and cumulative + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else self.min
                upper = self.bounds[index] if index < len(self.bounds) else self.max
                lower = max(lower, self.min)
                upper = min(max(upper, lower), self.max)
                fraction = (target - cumulative) / bucket_count
                if lower > 0 and upper > lower:
                    value = lower * (upper / lower) ** fraction
                else:
                    value = lower + (upper - lower) * fraction
                return min(max(value, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def as_dict(self) -> Dict:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": round(self.total, 9),
            "min": self.min,
            "max": self.max,
        }

    def merge_dict(self, data: Dict) -> bool:
        """Fold an exported histogram dict in; False when malformed."""
        try:
            bounds = tuple(data["bounds"])
            buckets = list(data["buckets"])
            count = int(data["count"])
            total = float(data["total"])
        except (KeyError, TypeError, ValueError):
            return False
        if bounds != self.bounds or len(buckets) != len(self.buckets):
            return False
        for index, value in enumerate(buckets):
            self.buckets[index] += int(value)
        self.count += count
        self.total += total
        for extreme, pick in (("min", min), ("max", max)):
            value = data.get(extreme)
            if value is None:
                continue
            current = getattr(self, extreme)
            setattr(self, extreme, value if current is None else pick(current, value))
        return True


class CostModelState:
    """The persisted state a ``["c", state]`` record carries.

    Nothing in the analysis learns or reads these values; the container
    only merges persisted states (:meth:`adopt_state`) and renders one back
    (:meth:`export_state`) so the record round-trips.  It stays because
    ``perfbench/ledger.py`` times
    :meth:`PersistentSummaryStore.load_cost_model_into` and
    ``perfbench/selfcheck.py`` requires a store resume to call it.

    Merge rules: keys already held win; scalars are taken only while this
    state has observed nothing itself (the fence estimate is seeded from the
    persisted fence histogram's median when there is one); path counts keep
    the maximum; feature buckets are adopted per missing bucket.
    """

    #: Never let a fence estimate go below this.
    FENCE_FLOOR_SECONDS = 0.0005

    #: Version stamp of the state schema; other versions are ignored.
    STATE_VERSION = 1

    def __init__(self):
        self.fence_seconds = 0.003
        self.seconds_per_path = 0.0005
        self.observed_tasks = 0
        self.observed_rounds = 0
        self.digest_seconds: Dict[str, float] = {}
        self.digest_paths: Dict[str, int] = {}
        self.digest_spread: Dict[str, float] = {}
        self.run_seconds: Dict[str, float] = {}
        self.run_shards: Dict[str, float] = {}
        self.run_gated: Set[str] = set()
        self.feature_buckets: Dict[str, List[float]] = {}
        self.fence_histogram = Histogram()
        self.shard_histogram = Histogram()

    def export_state(self) -> Dict:
        """A pure-JSON snapshot; the inverse of :meth:`adopt_state`."""
        return {
            "version": self.STATE_VERSION,
            "fence_seconds": self.fence_seconds,
            "seconds_per_path": self.seconds_per_path,
            "observed_tasks": self.observed_tasks,
            "observed_rounds": self.observed_rounds,
            "digest_seconds": dict(self.digest_seconds),
            "digest_paths": dict(self.digest_paths),
            "digest_spread": dict(self.digest_spread),
            "run_seconds": dict(self.run_seconds),
            "run_shards": dict(self.run_shards),
            "run_gated": sorted(self.run_gated),
            "feature_buckets": {
                bucket: list(stats) for bucket, stats in self.feature_buckets.items()
            },
            "fence_histogram": self.fence_histogram.as_dict(),
            "shard_histogram": self.shard_histogram.as_dict(),
        }

    def adopt_state(self, state: object) -> int:
        """Fold a persisted state in; returns the digest estimates adopted.

        Idempotent.  A state with an unknown version or a non-dict shape is
        ignored (0 adopted); individually malformed fields are skipped.
        """
        if not isinstance(state, dict) or state.get("version") != self.STATE_VERSION:
            return 0
        if self.observed_rounds == 0:
            histogram = state.get("fence_histogram")
            if isinstance(histogram, dict) and self.fence_histogram.count == 0:
                self.fence_histogram.merge_dict(histogram)
            rounds = _number(state.get("observed_rounds"), int)
            fence = _number(state.get("fence_seconds"), float)
            if rounds > 0 and fence > 0.0:
                seeded = self.fence_histogram.percentile(0.5)
                self.fence_seconds = max(
                    self.FENCE_FLOOR_SECONDS, fence if seeded is None else seeded
                )
                self.observed_rounds = rounds
        if self.observed_tasks == 0:
            histogram = state.get("shard_histogram")
            if isinstance(histogram, dict) and self.shard_histogram.count == 0:
                self.shard_histogram.merge_dict(histogram)
            tasks = _number(state.get("observed_tasks"), int)
            rate = _number(state.get("seconds_per_path"), float)
            if tasks > 0 and rate > 0.0:
                self.seconds_per_path = rate
                self.observed_tasks = tasks
        adopted = _adopt_float_map(state.get("digest_seconds"), self.digest_seconds)
        _adopt_float_map(state.get("digest_spread"), self.digest_spread)
        _adopt_float_map(state.get("run_seconds"), self.run_seconds)
        _adopt_float_map(state.get("run_shards"), self.run_shards)
        gated = state.get("run_gated")
        if isinstance(gated, (list, tuple)):
            self.run_gated.update(proc for proc in gated if isinstance(proc, str))
        paths = state.get("digest_paths")
        if isinstance(paths, dict):
            for digest, count in paths.items():
                count = _number(count, int)
                if count > self.digest_paths.get(digest, 0):
                    self.digest_paths[digest] = count
        buckets = state.get("feature_buckets")
        if isinstance(buckets, dict):
            for bucket, stats in buckets.items():
                if bucket in self.feature_buckets:
                    continue
                try:
                    count, total = float(stats[0]), float(stats[1])
                except (TypeError, ValueError, IndexError):
                    continue
                if count > 0:
                    self.feature_buckets[str(bucket)] = [count, total]
        return adopted


def _number(value, kind):
    """``kind(value)``, or 0 when the value is missing or malformed."""
    try:
        return kind(value if value is not None else 0)
    except (TypeError, ValueError):
        return kind(0)


def _adopt_float_map(source, target: Dict[str, float]) -> int:
    """setdefault-adopt a str->float map; counts adoptions."""
    if not isinstance(source, dict):
        return 0
    adopted = 0
    for key, value in source.items():
        if key in target:
            continue
        try:
            target[str(key)] = float(value)
        except (TypeError, ValueError):
            continue
        adopted += 1
    return adopted


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
        #: Cost-model states, in file order, and the latest one's hash.
        self.states: List[dict] = []
        self.state_hash: Optional[bytes] = None
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
                elif kind == _STATE:
                    self.states.append(json.loads(payload)[1])
                    self.state_hash = digest
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
        #: Digest estimates the last :meth:`load_cost_model_into` adopted,
        #: and whether the last :meth:`dump` published a costmodel state.
        self.costmodel_adopted = 0
        self.costmodel_published = False
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

    def dump(self, cache: SummaryCache, cost_model=None) -> int:
        """Append ``cache``'s new entries; returns the number of cache
        entries in the store afterwards.

        The catch-up-truncate-append sequence runs under an exclusive lock
        file, so concurrent dumpers serialize and union instead of
        clobbering each other.

        ``cost_model`` (a :class:`CostModelState`) additionally publishes
        its state merged over the states on disk (its own values win).
        Without one, the states on disk are left as they are.
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
                        return self._append(handle, view, cache, cost_model)
            return self._create(directory, cache, cost_model)
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

    def _append(self, handle, view: _FileView, cache: SummaryCache, cost_model) -> int:
        if view.stat[2] > view.end:
            handle.truncate(view.end)  # the torn tail goes
        start = view.end
        on_disk = self._loaded_keys if self._loaded_from == view.stat[:2] else ()
        data = b"".join(self._encode(view, cache, cost_model, on_disk))
        if data:
            handle.seek(start)
            handle.write(data)
            handle.flush()
            view.end += len(data)
        view.stat = _file_stat(os.fstat(handle.fileno()))
        if data:
            self._maybe_tear(start, data)
        return len(view.entries)

    def _create(self, directory: str, cache: SummaryCache, cost_model) -> int:
        view = _FileView(_HEADER)
        data = b"".join([_HEADER] + self._encode(view, cache, cost_model, ()))
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

    def _encode(self, view: _FileView, cache: SummaryCache, cost_model, on_disk) -> List[bytes]:
        """The lines that bring the file from ``view`` up to ``cache``;
        ``view`` is updated as if they were written.

        Entries under a key in ``on_disk`` are not encoded at all: a reader
        adopts the first record of a key, so another record of it could
        never be adopted.  Every other entry is encoded, and written unless
        its record hash is on disk already."""
        lines = []
        if cost_model is not None:
            state = self._merged_costmodel_state(cost_model, view.states)
            digest, line = _record_line(_render(["c", state]))
            if digest != view.state_hash:
                lines.append(line)
                view.states.append(state)
                view.state_hash = digest
        self.costmodel_published = cost_model is not None
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

    @staticmethod
    def _merged_costmodel_state(cost_model, disk_states) -> Dict:
        """One publishable state: the live model's, with disk filling gaps
        (newest state first).

        Adoption into a scratch state keeps the merge rules in exactly one
        place -- :meth:`CostModelState.adopt_state`.
        """
        scratch = CostModelState()
        scratch.adopt_state(cost_model.export_state())
        for state in reversed(disk_states):
            scratch.adopt_state(state)
        return scratch.export_state()

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

    def _read(self) -> Optional[_FileView]:
        """The whole file scanned into a new view (None when unusable)."""
        view, data = self._open()
        if view is not None:
            view.absorb(data)
            self._view = view
        return view

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

    def load_cost_model_into(self, model: CostModelState) -> int:
        """Adopt the persisted costmodel states into ``model``, newest first.

        Returns the number of per-digest estimates adopted -- the analogue
        of :meth:`load_into`'s entry count.  The states come from the last
        read of the file when it has not changed since (a
        :meth:`load_into` just before costs nothing more), from a new read
        otherwise.  A missing, stale, truncated or corrupt store adopts
        nothing and never raises.
        """
        view = self._view
        try:
            current = _file_stat(os.stat(self.path))
        except OSError:
            current = None
        if view is None or view.stat != current:
            view = self._read()
        adopted = 0
        for state in reversed(view.states if view is not None else []):
            adopted += model.adopt_state(state)
        self.costmodel_adopted = adopted
        return adopted

    def entry_count(self) -> Optional[int]:
        """Number of intact cache-entry records on disk; None when the store
        is unusable."""
        view = self._read()
        return None if view is None else len(view.entries)

    def costmodel_state_count(self) -> int:
        """Number of intact costmodel records on disk (0 when unusable)."""
        view = self._read()
        return 0 if view is None else len(view.states)

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
