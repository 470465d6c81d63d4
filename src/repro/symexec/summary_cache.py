"""Cross-version memoization of symbolic-execution subtree summaries.

DiSE's premise is that version N+1 should pay only for what changed, yet a
fresh run re-executes every subtree of the modified program -- including the
(usually large) parts whose CFG suffix is byte-for-byte identical to the
previous version.  A :class:`SummaryCache` stores, for each executed
subtree, the completed path records *relative to the subtree root* and
replays them whenever a later run reaches an equivalent root.

A subtree execution is a deterministic function of four inputs, which
together form the cache key:

1. **region digest** -- the content hash of the root's CFG suffix region
   (:func:`repro.cfg.region_hash.region_signature`); any IR change inside
   the region changes the digest, so stale structure can never be replayed;
2. **environment fingerprint** -- the interned term ids of the symbolic
   values of every variable the region *reads*; values of untouched
   variables cannot influence the subtree;
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

**Concrete-entry vs fresh-formal keys.**  The suffix/segment keys above are
*concrete-entry* keys: the environment fingerprint contains the interned
term ids of the actual values flowing into the region, so two call sites
passing different argument terms to the same callee record separate
entries.  ``CALL`` roots additionally support a *generalised* (fresh-formal,
Godefroid-style compositional) key kind, ``"call"``::

    ("call", callee content digest, formal-shape fingerprint, token, None)

The callee content digest (:func:`repro.cfg.callgraph.procedure_digests`)
is transitive over the callee's own calls; the formal-shape fingerprint
names the callee's parameters and the program's global declarations --
*shapes*, not term ids -- so the entry is shared by every call site, every
caller version, and every caller *program* with matching globals.  The
stored :class:`CallSummary` holds the callee's complete path set executed
standalone over fresh symbolic formals and fresh symbolic globals.

**Instantiation.**  At a hit, the engine substitutes the call site's actual
argument terms (and current global terms) into the recorded constraints,
writes and return values (``simplify(substitute(.))``; substitution
commutes with the simplifier's rules, so instantiated terms equal what a
native inline execution would have built).  Instantiation falls back to
native execution -- never an approximate replay -- when any of the
following holds *after* substitution:

* an instantiated constraint shares symbols with the caller's path-condition
  prefix (the independence argument above no longer applies);
* the solver's deadline budget is exhausted mid-instantiation;
* the call-site/standalone CFG offset guard fails (splice layout drifted).

Constraints that simplify to ``True``/``False`` under the substitution are
dropped/kill the path (mirroring the engine's concrete branch folding), and
each surviving path is feasibility-filtered constraint-by-constraint exactly
as the native branch checks would have decided it.  Loopy callees (a
``While`` in the callee or any transitive callee) are never generalised:
their standalone path set is unbounded.

Invalidation is content-driven: :meth:`SummaryCache.begin_version` drops
every entry of the procedure whose region digest no longer occurs in the
incoming version's CFG.  A changed node changes the digest of every region
containing it, so the edit's ancestor regions are invalidated while suffix
regions disjoint from the change survive and keep serving hits.  ``"call"``
entries are keyed by callee (not the entry procedure), so they are aged by
``live_call_digests`` instead: a callee digest absent from the incoming
program's :func:`~repro.cfg.callgraph.procedure_digests` for
``miss_tolerance`` consecutive versions is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Optional, Tuple

from repro.solver.terms import Term


def term_symbols(term: Term) -> FrozenSet[str]:
    """The symbol names of ``term``, cached on the term instance.

    Caching on the instance (rather than in a process-global table keyed by
    intern id) ties the cache entry's lifetime to the term's own: when a
    run's terms are garbage-collected the cached sets go with them, and a
    plain (non-interned) term gets the same O(1) repeat lookups as an
    interned one.
    """
    cached = term.__dict__.get("_symbols")
    if cached is None:
        cached = term.symbols()
        object.__setattr__(term, "_symbols", cached)
    return cached


@dataclass(frozen=True)
class ReplayRecord:
    """One completed path of a cached subtree, relative to the subtree root.

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


@dataclass(frozen=True)
class SubtreeSummary:
    """Everything needed to replay one subtree: records + strategy effect."""

    procedure: str
    digest: str
    records: Tuple[ReplayRecord, ...]
    #: The exploration strategy's in-region state after the subtree finished
    #: (canonical coordinates), applied on replay; ``None`` for strategies
    #: without region state.
    strategy_after: Optional[Hashable] = None


@dataclass(frozen=True)
class SegmentRecord:
    """One internal path of a segment (root to immediate post-dominator).

    Non-error records are *continuations*: on replay they become successor
    states sitting at the segment boundary, from which exploration proceeds
    natively.  Error records are terminal (an assertion failed inside the
    segment) and are emitted as completed paths.
    """

    constraints: Tuple[Term, ...]
    writes: Tuple[Tuple[str, Term], ...]
    trace: Tuple[int, ...]
    depth_delta: int = 0
    is_error: bool = False
    #: Root-environment names absent at capture (an error record that died
    #: inside a nested call, after its scope switch removed them; balanced
    #: boundary continuations never delete).
    removed: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SegmentSummary:
    """The internal paths of one segment, in native DFS arrival order.

    Segment summaries compose: replaying one yields boundary states whose
    own segments can replay in turn, so a chain of unchanged diamonds is
    crossed with zero solver work even when a later edit invalidated every
    suffix region containing it.  Only strategies without global mutable
    state may record or replay segments -- a stateful strategy's behaviour
    below the boundary interleaves with in-segment backtracking, which
    composition cannot reproduce.
    """

    procedure: str
    digest: str
    records: Tuple[SegmentRecord, ...]


@dataclass(frozen=True)
class CallRecord:
    """One complete standalone path of a callee, in fresh-formal coordinates.

    ``constraints`` and ``writes`` are over fresh symbols named after the
    callee's formals and the program's globals; ``writes`` is the callee's
    *entire* final environment (callee scope only -- nothing of any caller
    leaks in, so instantiated records rebuild the post-call environment
    wholesale rather than as a delta).  ``trace`` is relative to the
    standalone callee CFG's ``BEGIN`` (excluded), so a call site maps it by
    adding its ``CALL`` node id.
    """

    constraints: Tuple[Term, ...]
    writes: Tuple[Tuple[str, Term], ...]
    trace: Tuple[int, ...]
    is_error: bool = False


@dataclass(frozen=True)
class CallSummary:
    """A callee's complete path set over fresh symbolic formals and globals.

    One entry serves every call site of the callee (in any caller program
    with matching global declarations): replay substitutes the site's actual
    argument terms into each record.  ``cfg_size`` is the standalone callee
    CFG's node count, checked against the call site's splice layout before
    any trace is mapped.
    """

    procedure: str  # the callee's name
    digest: str  # the callee's transitive content digest
    records: Tuple[CallRecord, ...]
    params: Tuple[str, ...]
    cfg_size: int


#: A fully resolved cache key: (region kind, digest, env fingerprint,
#: strategy token, remaining depth budget).
CacheKey = Tuple[str, str, Tuple[Tuple[str, int], ...], Hashable, Optional[int]]


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
    #: Hits served by entries whose origin is the persistent on-disk store
    #: (the ROADMAP fleet-scale rung's hit-rate telemetry): warm-resume
    #: value is ``store_hits`` over the loaded entry count, as opposed to
    #: hits on entries this process recorded itself.
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
    summary: object  # SubtreeSummary or SegmentSummary
    generation: int
    last_used: int
    missing_streak: int = 0
    #: Terms whose intern ids appear in the entry's key (the recording
    #: root's environment).  Interning is weak, so without this anchor the
    #: canonical instances could be collected between versions; a later
    #: probe would then re-intern structurally identical values under fresh
    #: ids and the key would never match again.  Pinning them for the
    #: entry's lifetime keeps the key resolvable exactly as long as it can
    #: still hit.
    pins: Tuple[Term, ...] = ()
    #: Where the entry came from: ``"local"`` (this process's own
    #: recording), ``"store"`` (loaded from the persistent store) or
    #: ``"external"`` (other adopt callers).  Lets :meth:`SummaryCache.lookup` attribute hits to the
    #: on-disk store without scanning anything.
    origin: str = "local"


class SummaryCache:
    """An in-memory cross-version subtree/segment summary store.

    Args:
        miss_tolerance: number of *consecutive* versions a region may be
            absent from before its entries are evicted.  Version histories
            routinely revert edits (version K+1 is the base plus a different
            edit than version K), so a region missing from one version often
            reappears in the next; evicting on the first absence would throw
            away summaries the following version could replay.
        stale_after: when set, :meth:`begin_version` additionally evicts
            entries that have not been stored or hit for this many
            generations (memory hygiene for long-lived batch drivers).
    """

    def __init__(self, miss_tolerance: int = 6, stale_after: Optional[int] = None):
        self._entries: Dict[CacheKey, _Entry] = {}
        self.statistics = SummaryCacheStatistics()
        self.generation = 0
        self.miss_tolerance = miss_tolerance
        self.stale_after = stale_after
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

    # -- versioned lifecycle ---------------------------------------------------

    def begin_version(
        self,
        procedure: str,
        live_digests: FrozenSet[str],
        live_call_digests: Optional[FrozenSet[str]] = None,
    ) -> int:
        """Start a new generation; evict entries the new version obsoletes.

        ``live_digests`` are the region/segment digests of the incoming
        version's CFG.  Entries of ``procedure`` whose digest is absent
        cannot hit during this version (their region's content changed);
        once a digest has been absent for ``miss_tolerance`` consecutive
        versions its entries are dropped.  ``live_call_digests``, when
        given, ages generalised ``"call"`` entries the same way -- they are
        keyed by *callee* (not ``procedure``), so the procedure filter never
        sees them; a callee digest absent from the incoming program's
        :func:`~repro.cfg.callgraph.procedure_digests` values counts one
        miss against its entries.  The number of evictions is returned and
        counted as ``invalidations``.
        """
        self.generation += 1
        dead = []
        for key, entry in self._entries.items():
            if key[0] == "call":
                if live_call_digests is not None:
                    if entry.summary.digest not in live_call_digests:
                        entry.missing_streak += 1
                    else:
                        entry.missing_streak = 0
            elif entry.summary.procedure == procedure:
                if entry.summary.digest not in live_digests:
                    entry.missing_streak += 1
                else:
                    entry.missing_streak = 0
            if entry.missing_streak >= self.miss_tolerance or (
                self.stale_after is not None
                and self.generation - entry.last_used > self.stale_after
            ):
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
        entry.last_used = self.generation
        self.statistics.hits += 1
        if entry.origin == "store":
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
        entry.last_used = self.generation
        self.statistics.hits += 1
        if entry.origin == "store":
            self.statistics.store_hits += 1
        return entry.summary

    def store(self, key: CacheKey, summary, pins: Tuple[Term, ...] = ()) -> None:
        if key not in self._entries:
            self._index_add(key)
        self._entries[key] = _Entry(summary, self.generation, self.generation, pins=pins)
        self.statistics.stores += 1

    # -- merge / persistence support ------------------------------------------

    def contains(self, key: CacheKey) -> bool:
        """Membership probe that touches no statistics or LRU state."""
        return key in self._entries

    def adopt(
        self, key: CacheKey, summary, pins: Tuple[Term, ...] = (), origin: str = "external"
    ) -> bool:
        """Merge one externally produced entry (e.g. from the disk store).

        Entries already present win -- they were recorded or adopted first
        in this process and their pins are known-live -- which also makes a
        multi-source merge independent of source order for identical keys
        (content-keyed entries with equal keys replay identically by
        construction).  ``origin`` tags the entry's provenance (``"store"``
        for the persistent store) so later hits attribute correctly in the
        statistics.  Returns True when the entry was added.
        """
        if key in self._entries:
            return False
        self._entries[key] = _Entry(
            summary, self.generation, self.generation, pins=pins, origin=origin
        )
        self._index_add(key)
        self.statistics.adopted += 1
        return True

    def iter_entries(self):
        """Yield ``(key, summary, pins)`` for every live entry (stable order)."""
        for key, entry in self._entries.items():
            yield key, entry.summary, entry.pins

    def entries_per_callee(self) -> Dict[str, int]:
        """Live generalised (``"call"``-kind) entry count per callee name.

        The call-site-count-independence gate reads this: adding a call site
        to an unchanged callee must not grow any count (one fresh-formal
        entry serves every site).  Suffix/segment entries are keyed by the
        *caller's* concrete terms and are deliberately excluded.
        """
        counts: Dict[str, int] = {}
        for key, entry in self._entries.items():
            if key[0] == "call":
                name = entry.summary.procedure
                counts[name] = counts.get(name, 0) + 1
        return counts
