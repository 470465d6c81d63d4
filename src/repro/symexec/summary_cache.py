"""Cross-version memoization of symbolic-execution region summaries.

DiSE's premise is that version N+1 should pay only for what changed, yet a
fresh run re-executes every subtree of the modified program -- including the
(usually large) parts whose CFG suffix is byte-for-byte identical to the
previous version.  A :class:`SummaryCache` stores, for each executed
region, the paths it produced *relative to the region root* and replays
them whenever a later run reaches an equivalent root.

A **suffix** region runs from the root to the procedure's end: its records
are the root's completed paths, and a replay emits them.  A **segment**
runs to the root's immediate post-dominator (the *boundary*, exclusive):
its records are each path's first arrival at the boundary and each error
path that died before it, in native DFS order, and a replay hands them to
the search as states.  Both share :class:`ReplayRecord`,
:class:`SubtreeSummary` and :func:`replay_records`; only the signature's
``boundary_id`` and the key's kind tell them apart.

A region execution is a deterministic function of four inputs, which
together with the region kind form the cache key:

1. **region digest** -- the content hash of the root's suffix region or
   segment (:mod:`repro.cfg.region_hash`); any IR change inside the region
   changes the digest, so stale structure can never be replayed;
2. **environment fingerprint** -- ``(name, term)`` pairs for the symbolic
   values of every variable the region *reads* (``None`` when unbound);
   values of untouched variables cannot influence the subtree.  Terms are
   hash-consed, so equal values are the same object, and the key itself
   keeps them interned for as long as the entry lives;
3. **strategy token** -- whatever the exploration strategy's decisions
   depend on, restricted to the region
   (:meth:`~repro.symexec.strategy.ExplorationStrategy.replay_token`); for
   the directed DiSE strategy this is the in-region slice of the
   explored/unexplored affected sets in canonical region coordinates;
4. **remaining depth budget** -- ``depth_bound - root.depth`` (``None``
   when unbounded), since the bound can truncate the subtree.

One condition gates both recording and replay: the symbols occurring in the
fingerprinted environment values must be disjoint from the symbols of the
path-condition prefix.  Under that independence the satisfiability of
``prefix AND suffix`` equals the satisfiability of ``suffix`` alone (the
prefix is feasible or the state would not have been reached), so the
explored subtree shape -- including every branch-feasibility answer and
every strategy decision -- is identical no matter which prefix the root is
reached under.  Replay is therefore *exact*: it emits precisely the records
a native re-execution would have produced, which the differential history
tests assert.

Invalidation is content-driven: :meth:`SummaryCache.begin_version` drops
every entry of the procedure whose region digest no longer occurs in the
incoming version's CFG.  A changed node changes the digest of every region
containing it, so the edit's ancestor regions are invalidated while suffix
regions disjoint from the change survive and keep serving hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Mapping, Optional, Sequence, Tuple

from repro.solver.terms import Term


@dataclass(frozen=True)
class ReplayRecord:
    """One path of a cached region, relative to the region root.

    For a suffix the path is complete; for a segment it either arrived at
    the boundary (``trace`` stops just before it, since the boundary is not
    part of the segment's canonical numbering) or ended at an error node
    inside the segment.

    ``constraints`` are the path-condition terms appended below the root;
    ``writes`` are the environment entries that differ from the root
    environment (terms are closed over the region's read variables, so they
    are valid verbatim under any root with a matching fingerprint);
    ``removed`` are the root-environment names *absent* from the final
    environment -- a root inside a spliced callee records paths whose
    ``CALL_RETURN`` pops delete the callee-scope bindings, which a
    set-only diff could not express; ``trace`` uses canonical region
    indices so it can be rebased onto another version's node ids.
    """

    constraints: Tuple[Term, ...]
    writes: Tuple[Tuple[str, Term], ...]
    trace: Tuple[int, ...]
    is_error: bool = False
    removed: Tuple[str, ...] = ()


def root_delta(
    root_env: Mapping[str, Term], environment: Tuple[Tuple[str, Term], ...]
) -> Tuple[Tuple[Tuple[str, Term], ...], Tuple[str, ...]]:
    """``(writes, removed)`` of ``environment`` relative to a root's.

    ``writes`` are the environment's own pair objects, not copies, whose term
    is not the root's binding of that name; ``removed`` are the root names
    the environment lacks.  A root inside a callee records paths whose frame
    pops delete the callee-scope names; replay must delete them too, or
    rebased environments retain stale bindings.
    """
    names = {name for name, _ in environment}
    writes = tuple(
        binding for binding in environment if root_env.get(binding[0]) is not binding[1]
    )
    return writes, tuple(name for name in root_env if name not in names)


def replay_records(
    paths: Sequence,
    root_environment: Tuple[Tuple[str, Term], ...],
    prefix_len: int,
    trace_len: int,
    index: Dict[int, int],
) -> Tuple[ReplayRecord, ...]:
    """Rebase a region's absolute path records onto its root.

    ``paths`` are :class:`~repro.symexec.summary.PathRecord` values: the
    paths a suffix emitted, or a segment's boundary arrivals and in-segment
    errors.  The root is described by its environment, the lengths of its
    path condition and trace, and its region's node id -> canonical index
    map.
    """
    root_env = dict(root_environment)
    records = []
    for path in paths:
        writes, removed = root_delta(root_env, path.final_environment)
        records.append(
            ReplayRecord(
                constraints=path.path_condition.constraints[prefix_len:],
                writes=writes,
                trace=tuple(index[node_id] for node_id in path.trace[trace_len:]),
                is_error=path.is_error,
                removed=removed,
            )
        )
    return tuple(records)


class SubtreeSummary:
    """Everything needed to replay one region: records + strategy effect.

    A recorded suffix summary is built by :meth:`from_paths` from the slice
    of the run's path records that its subtree emitted (the depth-first
    search finishes a subtree before it leaves the root, so those records
    are contiguous).  Its :attr:`records` are derived from that slice by
    :func:`replay_records` on first read -- a replay hit, a store dump or
    an equality test -- and cached, and the slice is dropped.  Most
    recorded entries are never replayed, and every enclosing root would
    otherwise rebase the same paths again, so deriving at close costs
    paths times nesting depth and fills the heap with records the garbage
    collector keeps rescanning.  A segment summary and a decoded store
    entry pass ``records`` directly.
    """

    __slots__ = ("procedure", "digest", "strategy_after", "_records", "_source")

    def __init__(
        self,
        procedure: str,
        digest: str,
        records: Optional[Tuple[ReplayRecord, ...]],
        strategy_after: Optional[Hashable] = None,
    ):
        self.procedure = procedure
        self.digest = digest
        #: The exploration strategy's in-region state after the subtree
        #: finished (canonical coordinates), applied on replay; ``None`` for
        #: strategies without region state.
        self.strategy_after = strategy_after
        self._records = records
        #: ``replay_records`` arguments while ``records`` is underived.
        self._source: Optional[tuple] = None

    @classmethod
    def from_paths(
        cls,
        procedure: str,
        digest: str,
        paths: Tuple,
        root_environment: Tuple[Tuple[str, Term], ...],
        prefix_len: int,
        trace_len: int,
        index: Dict[int, int],
        strategy_after: Optional[Hashable] = None,
    ) -> "SubtreeSummary":
        """A summary whose records are derived from ``paths`` when first read
        (arguments as for :func:`replay_records`)."""
        summary = cls(procedure, digest, None, strategy_after)
        summary._source = (paths, root_environment, prefix_len, trace_len, index)
        return summary

    @property
    def records(self) -> Tuple[ReplayRecord, ...]:
        records = self._records
        if records is None:
            records = self._records = replay_records(*self._source)
            self._source = None
        return records

    def _fields(self) -> tuple:
        return (self.procedure, self.digest, self.records, self.strategy_after)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"SubtreeSummary(procedure={self.procedure!r}, digest={self.digest!r}, "
            f"records={self.records!r}, strategy_after={self.strategy_after!r})"
        )


#: A fully resolved cache key: (region kind, digest, env fingerprint of
#: ``(name, term or None)`` pairs, strategy token, remaining depth budget).
CacheKey = Tuple[str, str, Tuple[Tuple[Hashable, Optional[Term]], ...], Hashable, Optional[int]]


@dataclass
class SummaryCacheStatistics:
    """Lifetime counters for one :class:`SummaryCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    #: Entries merged in from elsewhere (the persistent on-disk store)
    #: rather than recorded by this process's own exploration; kept separate
    #: from ``stores`` so reuse ratios can tell local recording apart from
    #: imported warm state.
    adopted: int = 0
    #: Misses where an entry exists for the same (kind, digest, fingerprint,
    #: budget) under a *different* strategy token: the subtree was summarised,
    #: but under strategy state that does not match the probe's.
    token_misses: int = 0
    #: Hits served by entries whose origin is the persistent on-disk store:
    #: warm-resume value is ``store_hits`` over the loaded entry count, as
    #: opposed to hits on entries this process recorded itself.
    store_hits: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "adopted": self.adopted,
            "token_misses": self.token_misses,
            "store_hits": self.store_hits,
        }


@dataclass
class _Entry:
    summary: SubtreeSummary
    missing_streak: int = 0
    #: Whether the entry was adopted from the persistent store rather than
    #: recorded by this process.  Lets :meth:`SummaryCache.lookup` attribute
    #: hits to the on-disk store without scanning anything.
    from_store: bool = False


class SummaryCache:
    """An in-memory cross-version region summary store.

    Args:
        miss_tolerance: number of *consecutive* versions a region may be
            absent from before its entries are evicted.  Version histories
            routinely revert edits (version K+1 is the base plus a different
            edit than version K), so a region missing from one version often
            reappears in the next; evicting on the first absence would throw
            away summaries the following version could replay.
    """

    def __init__(self, miss_tolerance: int = 6):
        self._entries: Dict[CacheKey, _Entry] = {}
        self.statistics = SummaryCacheStatistics()
        self.miss_tolerance = miss_tolerance
        #: (kind, digest, fingerprint, budget) -> number of live entries with
        #: that token-free key.  Lets :meth:`lookup` classify a miss as a
        #: *token* miss (same subtree and environment summarised under other
        #: strategy state) without scanning the table.
        self._token_free_index: Dict[Tuple, int] = {}

    @staticmethod
    def _token_free(key: CacheKey) -> Tuple:
        kind, digest, fingerprint, _token, budget = key
        return (kind, digest, fingerprint, budget)

    def _index_add(self, key: CacheKey) -> None:
        reduced = self._token_free(key)
        self._token_free_index[reduced] = self._token_free_index.get(reduced, 0) + 1

    def _index_discard(self, key: CacheKey) -> None:
        reduced = self._token_free(key)
        count = self._token_free_index.get(reduced, 0) - 1
        if count <= 0:
            self._token_free_index.pop(reduced, None)
        else:
            self._token_free_index[reduced] = count

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        """Whether ``key`` has an entry; neither a hit nor a miss is counted."""
        return key in self._entries

    # -- versioned lifecycle ---------------------------------------------------

    def begin_version(self, procedure: str, live_digests: FrozenSet[str]) -> int:
        """Start a new version; evict entries it obsoletes.

        ``live_digests`` are the region/segment digests of the incoming
        version's CFG.  Entries of ``procedure`` whose digest is absent
        cannot hit during this version (their region's content changed);
        once a digest has been absent for ``miss_tolerance`` consecutive
        versions its entries are dropped.  The number of evictions is
        returned and counted as ``invalidations``.
        """
        dead = []
        for key, entry in self._entries.items():
            if entry.summary.procedure == procedure:
                if entry.summary.digest not in live_digests:
                    entry.missing_streak += 1
                else:
                    entry.missing_streak = 0
            if entry.missing_streak >= self.miss_tolerance:
                dead.append(key)
        for key in dead:
            del self._entries[key]
            self._index_discard(key)
        self.statistics.invalidations += len(dead)
        return len(dead)

    # -- lookup / store --------------------------------------------------------

    def lookup(self, key: CacheKey):
        entry = self._entries.get(key)
        if entry is None:
            self.statistics.misses += 1
            if self._token_free_index.get(self._token_free(key)):
                self.statistics.token_misses += 1
            return None
        self.statistics.hits += 1
        if entry.from_store:
            self.statistics.store_hits += 1
        return entry.summary

    def peek(self, key: CacheKey):
        """Like :meth:`lookup` but a miss is not counted.

        Used for opportunistic chain expansion of replayed continuations,
        where absence simply means "continue natively" and will be counted
        by the continuation's own visit.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        self.statistics.hits += 1
        if entry.from_store:
            self.statistics.store_hits += 1
        return entry.summary

    def store(self, key: CacheKey, summary) -> None:
        if key not in self._entries:
            self._index_add(key)
        self._entries[key] = _Entry(summary)
        self.statistics.stores += 1

    # -- merge / persistence support ------------------------------------------

    def adopt(self, key: CacheKey, summary) -> bool:
        """Merge one entry loaded from the persistent store.

        Entries already present win -- they were recorded or adopted first
        in this process -- which also makes a multi-source merge independent
        of source order for identical keys (content-keyed entries with equal
        keys replay identically by construction).  The entry is marked as a
        store entry, so its hits count as ``store_hits``.  Returns True when
        the entry was added.
        """
        if key in self._entries:
            return False
        self._entries[key] = _Entry(summary, from_store=True)
        self._index_add(key)
        self.statistics.adopted += 1
        return True

    def iter_entries(self):
        """Yield ``(key, summary)`` for every live entry (stable order)."""
        for key, entry in self._entries.items():
            yield key, entry.summary
