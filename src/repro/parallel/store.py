"""A persistent, process-portable, crash-safe summary store.

The :class:`~repro.symexec.summary_cache.SummaryCache` is in-memory and
per-process; its keys embed intern ids that are process- *and* lifetime-
local (interning is weak).  A :class:`PersistentSummaryStore` dumps the
cache's entries structurally -- term trees instead of intern ids, via
:mod:`repro.parallel.serialize` -- so a later
:class:`~repro.evolution.history.VersionHistoryRunner` invocation in a
fresh process (or a fresh CI job restoring a cached file) can resume warm:
entries are re-interned on load and replay exactly as they would have in
the recording process.

Format (version 4): JSON Lines.  The first line is a header
``{"format": 4}``; every following line is one self-contained entry
``{"checksum": "<sha256>", "entry": {...}}`` where the checksum covers the
entry's canonical JSON rendering.  Two properties fall out of the per-line
layout:

* **Crash safety / torn-write salvage.**  A store truncated at any byte
  offset (a torn OS-level write, a killed process, a half-restored CI
  cache) still yields every intact prefix line; a line that fails to parse
  or whose checksum does not match is skipped and counted
  (``skipped_entries``), never adopted.  A corrupt store salvages its
  intact entries instead of being discarded wholesale.
* **Concurrent-writer union.**  :meth:`dump` takes an exclusive lock file
  and merges with the entries already on disk (union by checksum) before
  the atomic temp-file + ``os.replace`` publish, so two concurrent
  :class:`VersionHistoryRunner` processes sharing one store path union
  their entries instead of last-writer clobbering.

A store whose header is missing or carries an unknown format number is
ignored rather than trusted -- a stale cache file must never break or skew
a run, it can only fail to warm it.  Formats 2 (pre-call-summary) and 3
(pre-cost-model) are still readable: their entries are strict subsets of
format 4's shapes, so old stores warm new runs and are re-published as
format 4 on the next :meth:`~PersistentSummaryStore.dump`.

Format 4 adds one non-cache entry kind: ``{"kind": "costmodel", "state":
{...}}`` carries a :class:`CostModelState` snapshot.  Nothing in the
analysis reads it; the line round-trips unchanged because the benchmark's ledger
(``perfbench/ledger.py``) times :meth:`PersistentSummaryStore.
load_cost_model_into` and ``perfbench/selfcheck.py`` requires a warm store
resume to call it.  Costmodel lines sit directly after the header, and each
:meth:`~PersistentSummaryStore.dump` that carries a state *replaces* them
with one merged state instead of unioning, so the file never accumulates
stale snapshots.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro import faults, obs
from repro.obs.metrics import Histogram
from repro.parallel.serialize import SerializationError, decode_cache_entry, encode_cache_entries
from repro.symexec.summary_cache import SummaryCache

try:
    import fcntl
except ImportError:  # non-POSIX platform: dumps proceed unlocked
    fcntl = None

#: Bump when the serialized entry shape changes; mismatched stores are ignored.
#: Format 3 added generalised (fresh-formal) call-summary entries (``"call"``
#: kind); format 4 adds the ``"costmodel"`` entry kind.
#: Older formats contain strict subsets of the format-4 entry shapes, so the
#: reader accepts them all and new dumps always publish format 4.
STORE_FORMAT = 4

#: Formats :meth:`PersistentSummaryStore.load` accepts.  Formats 2 and 3 are
#: the pre-call-summary and pre-cost-model layouts -- their entries decode
#: unchanged under the format-4 codec, so old stores warm new runs losslessly.
READ_FORMATS = frozenset({2, 3, STORE_FORMAT})

#: Entry kind carrying a serialized :class:`CostModelState` (never fed to
#: the cache-entry decoder).
COSTMODEL_KIND = "costmodel"

#: How a costmodel line's canonical rendering begins after its checksum;
#: cache-entry lines continue with ``"entry":{"budget":`` instead.
_COSTMODEL_MARK = '"entry":{"kind":"costmodel"'

#: The mark sits right after ``{"checksum":"<64 hex digits>",``.
_COSTMODEL_MARK_END = 79 + len(_COSTMODEL_MARK)


def _is_costmodel(entry: dict) -> bool:
    return entry.get("kind") == COSTMODEL_KIND


def _canonical(entry: dict) -> str:
    """The canonical JSON rendering a checksum covers.

    Encoded entries are pure structural data (term trees, strings, ints),
    so this rendering -- and therefore the checksum -- is identical across
    processes and interpreter lifetimes.
    """
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def _checksum(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def merge_encoded_entries_counted(
    cache: SummaryCache, encoded_entries: Iterable[dict]
) -> Tuple[int, int]:
    """Decode stored entries into ``cache``; returns ``(adopted, skipped)``.

    ``skipped`` counts entries that failed to decode (corrupt frames,
    truncated writes, stale encodings): a damaged store degrades to a
    colder cache, never to a failed run.  Keys already present are neither
    adopted nor skipped -- the cache's own entry wins.  Adopted entries are
    tagged ``"store"`` so their hits count as store hits.
    """
    adopted = 0
    skipped = 0
    for data in encoded_entries:
        try:
            key, summary, pins = decode_cache_entry(data)
        except (SerializationError, KeyError, TypeError, IndexError):
            skipped += 1
            continue
        if cache.adopt(key, summary, pins=pins, origin="store"):
            adopted += 1
    return adopted, skipped


class CostModelState:
    """The persisted state a format-4 ``costmodel`` line carries.

    Nothing in the analysis learns or reads these values; the container
    only merges persisted states (:meth:`adopt_state`) and renders one back
    (:meth:`export_state`) so the line round-trips.  It stays because
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


class PersistentSummaryStore:
    """Dump/load a :class:`SummaryCache` to and from one JSONL file."""

    def __init__(self, path: str):
        self.path = os.fspath(path)
        #: Entries dropped by the most recent :meth:`load_into`: unparsable
        #: lines, checksum mismatches and entries that failed to decode.
        #: Surfaced so callers (benchmarks, history reports) can assert a
        #: healthy store lost nothing.
        self.skipped_entries = 0
        # Lifetime telemetry for this store handle (the ROADMAP fleet-scale
        # rung's hit-rate groundwork): how often the store was read/written
        # and how many entries moved each way.  ``store_hits`` -- hits the
        # loaded entries later served -- lives on the receiving cache's
        # :class:`~repro.symexec.summary_cache.SummaryCacheStatistics`.
        self.loads = 0
        self.loaded_entries = 0
        self.dumps = 0
        self.dumped_entries = 0
        self.load_seconds = 0.0
        self.dump_seconds = 0.0
        #: Digest estimates the last :meth:`load_cost_model_into` adopted,
        #: and whether the last :meth:`dump` published a costmodel entry.
        self.costmodel_adopted = 0
        self.costmodel_published = False

    def telemetry(self) -> Dict:
        """The store handle's counters as a flat dict (report plumbing)."""
        return {
            "loads": self.loads,
            "loaded_entries": self.loaded_entries,
            "skipped_entries": self.skipped_entries,
            "dumps": self.dumps,
            "dumped_entries": self.dumped_entries,
            "load_seconds": round(self.load_seconds, 6),
            "dump_seconds": round(self.dump_seconds, 6),
            "costmodel_adopted": self.costmodel_adopted,
            "costmodel_published": self.costmodel_published,
        }

    def exists(self) -> bool:
        return os.path.exists(self.path)

    # -- write -----------------------------------------------------------------

    def dump(self, cache: SummaryCache, cost_model=None) -> int:
        """Write ``cache``'s serializable entries, unioning with what is on
        disk; returns the number of cache entries in the published store.

        Entries whose fingerprint ids cannot be resolved from their pins
        (which cannot be rebuilt in any other process) are skipped by the
        encoder.  The read-merge-publish sequence runs under an exclusive
        lock file, so concurrent dumpers serialize and union instead of
        clobbering each other.

        ``cost_model`` (a :class:`CostModelState`) additionally publishes a
        single ``costmodel`` entry: its export merged over whatever states
        are already on disk (its own values win), replacing them.  Without
        one, existing costmodel lines are carried over verbatim.
        """
        with obs.timed("store.dump", "store", path=self.path) as timer:
            published = self._dump(cache, cost_model)
        self.dumps += 1
        self.dumped_entries = published
        self.dump_seconds += timer.seconds
        obs.counter("store.dumps")
        obs.counter("store.dumped_entries", published)
        return published

    def _dump(self, cache: SummaryCache, cost_model=None) -> int:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        lock_handle = None
        if fcntl is not None:
            lock_handle = open(self.path + ".lock", "a+")
            fcntl.flock(lock_handle.fileno(), fcntl.LOCK_EX)
        try:
            # Union by checksum with the intact lines already on disk
            # (first writer's rendering wins for a shared checksum, which
            # is the identical content anyway).  Costmodel lines are kept
            # apart: they are replaced by one merged state, not unioned --
            # unioning snapshots of a mutable state would grow the file
            # with stale states forever.
            merged: Dict[str, str] = {}
            costmodel_lines: Dict[str, str] = {}
            disk_states = []
            for checksum, entry in self._scan_records():
                line = _canonical({"checksum": checksum, "entry": entry})
                if _is_costmodel(entry):
                    costmodel_lines.setdefault(checksum, line)
                    disk_states.append(entry.get("state"))
                else:
                    merged.setdefault(checksum, line)
            for entry in encode_cache_entries(cache.iter_entries()):
                canonical = _canonical(entry)
                checksum = _checksum(canonical)
                merged.setdefault(
                    checksum,
                    _canonical({"checksum": checksum, "entry": entry}),
                )
            if cost_model is not None:
                entry = {
                    "kind": COSTMODEL_KIND,
                    "state": self._merged_costmodel_state(cost_model, disk_states),
                }
                checksum = _checksum(_canonical(entry))
                costmodel_lines = {
                    checksum: _canonical({"checksum": checksum, "entry": entry})
                }
            # "Published" means THIS dump wrote a state; lines merely
            # carried forward from disk don't count.
            self.costmodel_published = cost_model is not None and bool(costmodel_lines)
            payload = "\n".join(
                [_canonical({"format": STORE_FORMAT})]
                + list(costmodel_lines.values())
                + list(merged.values())
            ) + "\n"
            handle = tempfile.NamedTemporaryFile(
                "w", encoding="utf-8", dir=directory, suffix=".tmp", delete=False
            )
            try:
                with handle:
                    handle.write(payload)
                os.replace(handle.name, self.path)
            except BaseException:
                if os.path.exists(handle.name):
                    os.unlink(handle.name)
                raise
            self._maybe_tear(payload)
            return len(merged)
        finally:
            if lock_handle is not None:
                fcntl.flock(lock_handle.fileno(), fcntl.LOCK_UN)
                lock_handle.close()

    @staticmethod
    def _merged_costmodel_state(cost_model, disk_states) -> Dict:
        """One publishable state: the live model's, with disk filling gaps.

        Adoption into a scratch state keeps the merge rules in exactly one
        place -- :meth:`CostModelState.adopt_state`.
        """
        scratch = CostModelState()
        scratch.adopt_state(cost_model.export_state())
        for state in disk_states:
            scratch.adopt_state(state)
        return scratch.export_state()

    def _maybe_tear(self, payload: str) -> None:
        """Fault site ``torn-store-write``: truncate the published file.

        Simulates a torn OS-level write (power loss, killed process before
        the page cache drained) at a roll-derived byte offset.  The chaos
        tests then assert that a later load salvages every intact line and
        adopts nothing corrupt.
        """
        plan = faults.active_plan()
        if plan is None or not plan.fires("torn-store-write", self.path):
            return
        data = payload.encode("utf-8")
        offset = int(plan.roll("torn-store-write-at", self.path) * len(data))
        with open(self.path, "wb") as handle:
            handle.write(data[:offset])

    # -- read ------------------------------------------------------------------

    def load_into(self, cache: SummaryCache) -> int:
        """Adopt the stored entries into ``cache``; returns how many were added.

        Robust by design: a missing file, an unreadable or wrong-format
        header, a truncated tail, a corrupt line or a malformed individual
        entry contributes zero entries instead of raising -- persistent
        stores live in CI caches and scratch directories where staleness
        and torn writes are normal.  Casualties are counted in
        ``skipped_entries``.
        """
        with obs.timed("store.load", "store", path=self.path) as timer:
            scanned = self._scan()
            if scanned is None:
                self.skipped_entries = 0
                adopted = 0
            else:
                records, line_skipped = scanned
                adopted, decode_skipped = merge_encoded_entries_counted(
                    cache, [entry for _, entry in records if not _is_costmodel(entry)]
                )
                self.skipped_entries = line_skipped + decode_skipped
        self.loads += 1
        self.loaded_entries = adopted
        self.load_seconds += timer.seconds
        obs.counter("store.loads")
        obs.counter("store.loaded_entries", adopted)
        obs.counter("store.skipped_entries", self.skipped_entries)
        return adopted

    def load_cost_model_into(self, model: CostModelState) -> int:
        """Adopt the persisted costmodel states into ``model``.

        Returns the number of per-digest estimates adopted -- the analogue
        of :meth:`load_into`'s entry count.  Only the block of lines
        directly after the header is read: :meth:`dump` writes every
        costmodel line there, and formats 2 and 3 have none, so the first
        cache-entry line ends the scan without parsing or hashing the rest
        of the file.  Intact lines of the block are folded in in file order;
        a missing, stale, truncated or corrupt store adopts nothing and
        never raises.
        """
        adopted = 0
        for entry in self._leading_costmodel_entries():
            adopted += model.adopt_state(entry.get("state"))
        self.costmodel_adopted = adopted
        obs.counter("store.costmodel_adopted", adopted)
        return adopted

    def entry_count(self) -> Optional[int]:
        """Number of intact cache entries on disk (costmodel lines are not
        cache entries and are excluded); None when the store is unusable."""
        scanned = self._scan()
        if scanned is None:
            return None
        return sum(1 for _, entry in scanned[0] if not _is_costmodel(entry))

    def costmodel_state_count(self) -> int:
        """Number of intact costmodel lines on disk (0 when unusable)."""
        scanned = self._scan()
        if scanned is None:
            return 0
        return sum(1 for _, entry in scanned[0] if _is_costmodel(entry))

    def checksums(self) -> Optional[Set[str]]:
        """The intact entries' checksums (None when the store is unusable).

        Lets concurrency tests prove a union lost nothing without decoding.
        """
        scanned = self._scan()
        if scanned is None:
            return None
        return {checksum for checksum, _ in scanned[0]}

    # -- internals -------------------------------------------------------------

    def _leading_costmodel_entries(self) -> List[dict]:
        """Intact costmodel entries of the block that follows the header."""
        entries = []
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                if not _usable_header(handle.readline()):
                    return []
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    if _COSTMODEL_MARK not in line[:_COSTMODEL_MARK_END]:
                        break
                    record = _intact_record(line)
                    if record is not None and _is_costmodel(record[1]):
                        entries.append(record[1])
        except (OSError, ValueError):
            return []
        return entries

    def _scan(self):
        """``((checksum, entry) pairs, skipped line count)`` or None.

        "Unusable" (missing file, unreadable or wrong-format header ->
        ``None``) is distinct from "damaged": a damaged store still yields
        its intact lines, with the casualties counted.  A line counts as
        intact only when it parses, has the expected shape and its entry's
        canonical rendering matches the recorded checksum.
        """
        if not os.path.exists(self.path):
            return None
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError:
            return None
        if not lines or not _usable_header(lines[0]):
            return None
        records = []
        skipped = 0
        for line in lines[1:]:
            line = line.strip()
            if not line:
                continue
            record = _intact_record(line)
            if record is None:
                skipped += 1
            else:
                records.append(record)
        return records, skipped

    def _scan_records(self) -> List:
        """Intact ``(checksum, entry)`` pairs (empty when unusable)."""
        scanned = self._scan()
        if scanned is None:
            return []
        return scanned[0]


def _usable_header(line: str) -> bool:
    """Whether ``line`` is a header of a format this reader accepts."""
    try:
        header = json.loads(line)
    except ValueError:
        return False
    return isinstance(header, dict) and header.get("format") in READ_FORMATS


def _intact_record(line: str) -> Optional[Tuple[str, dict]]:
    """``(checksum, entry)`` of an intact line, or None for a casualty."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    checksum = record.get("checksum") if isinstance(record, dict) else None
    entry = record.get("entry") if isinstance(record, dict) else None
    if not isinstance(checksum, str) or not isinstance(entry, dict):
        return None
    if _checksum(_canonical(entry)) != checksum:
        return None
    return checksum, entry
