"""The constraint solver: satisfiability and model generation for path conditions.

This plays the role Choco plays in the paper's SPF-based implementation.  The
decision procedure handles conjunctions of boolean terms built from linear
integer arithmetic, boolean symbols and the logical connectives:

1. boolean structure (``&&``, ``||``, ``!``, boolean symbols/constants) is
   handled by rewriting plus case splitting;
2. comparisons are normalised to linear atoms (``<=``, ``==``, ``!=`` against 0);
3. ``!=`` atoms are split into the two strict alternatives;
4. the remaining conjunction of ``<=``/``==`` atoms is decided by interval
   propagation followed by branch-and-bound splitting over a bounded integer
   box (complete over that box).  Two rules keep that search cheap without
   changing the model it returns:

   * *components*: atoms that share no variable never interact in
     propagation, so each group of variable-connected atoms is searched over
     its own variables and the models are merged (any unsatisfiable group
     makes the query unsatisfiable).  The split rule -- narrowest interval,
     ties broken by name -- restricted to one group is that group's own
     rule, so the first satisfying leaf of the whole search is the union of
     each group's first satisfying leaf;
   * *candidate point*: every node first tries the box's closest-to-zero
     point.  Bisection always descends first into the half holding that
     point and propagation is sound, so when the point satisfies every atom
     depth-first search would return exactly it;
   * *form bounds*: before any search, the bounds the atoms place on each
     linear form (equal or negated coefficients) are intersected, and an
     empty intersection is UNSAT.  ``x + y < 0`` beside ``x + y >= 0`` is
     refuted there instead of by bisecting the whole box.  It answers only
     when no integer model exists, so no verdict or model changes.

Models are returned for satisfiable queries and every model is re-checked
against the original constraints before being returned.

A :class:`~repro.solver.context.SolverContext` whose narrowed box leaves
linear atoms undecided, and cannot decide them off the box itself, passes
those atoms and the box to :meth:`check` (``box=``); step 4 then searches
from the box instead of linearising the constraints again and starting from
the full box.

Result caching keys on the (simplified, hash-consed) constraint terms
themselves, sorted by ``term_id`` -- instead of the sorted string rendering
the first version of this module used; building a key is O(number of
constraints), not O(total term size), and the key keeps its terms alive.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.solver.intervals import (
    DEFAULT_BOUND,
    Domains,
    Interval,
    initial_domains,
    propagate,
    value_closest_to_zero,
)
from repro.solver.linear import (
    EQ,
    LE,
    NE,
    LinearAtom,
    NonLinearError,
    bool_symbol_atom,
    linearize_comparison,
)
from repro.solver.simplify import simplify
from repro.solver.terms import (
    BOOL_SORT,
    COMPARISON_OPS,
    Assignment,
    BinaryTerm,
    BoolConst,
    NotTerm,
    Symbol,
    Term,
    interned_count,
    negate,
)


_term_id = attrgetter("term_id")


class SolverError(Exception):
    """Raised when the solver cannot decide a constraint set."""


class BudgetExhausted(SolverError):
    """Raised by a solver whose :class:`DeadlineBudget` has expired.

    A ``SolverError`` subclass so existing conservative handlers (the
    lookahead's bailout) treat it like any other undecidable query; the
    engine additionally catches it around feasibility checks to degrade to
    "explore both sides" instead of failing the run.
    """


class DeadlineBudget:
    """A run-level wall-clock budget shared by everything a run solves.

    Threaded through :class:`ConstraintSolver` (and therefore every
    :class:`~repro.solver.context.SolverContext` and lookahead sharing
    it).  Once the budget expires the solver refuses further complete
    queries by raising :class:`BudgetExhausted`; callers degrade to
    conservative answers (lookahead -> "all reachable", feasibility ->
    explore both sides) and flag the run as degraded -- never a hang,
    never a wrong answer.  Exhaustion is sticky: a budget that has
    expired once stays expired (``exhausted``), which keeps degradation
    monotonic and the "did this run degrade?" question well-posed.
    """

    def __init__(self, seconds: float):
        self.seconds = float(seconds)
        self._deadline = time.monotonic() + self.seconds
        #: Sticky flag: set the first time the budget is observed expired.
        self.exhausted = False
        #: How many times an expired budget rejected a query (diagnostics).
        self.rejections = 0

    def expired(self) -> bool:
        """Whether the budget is (now) spent; sets the sticky flag."""
        if not self.exhausted and time.monotonic() >= self._deadline:
            self.exhausted = True
        return self.exhausted

    def remaining(self) -> float:
        return max(0.0, self._deadline - time.monotonic())

    def charge(self) -> None:
        """Admission control: raise :class:`BudgetExhausted` once spent."""
        if self.expired():
            self.rejections += 1
            raise BudgetExhausted(
                f"Deadline budget of {self.seconds:.3f}s exhausted"
            )


@dataclass
class SolverStatistics:
    """Counters describing the work a :class:`ConstraintSolver` has done.

    The ``incremental_*`` counters are filled in by
    :class:`~repro.solver.context.SolverContext` instances sharing this
    solver; they quantify how much work the incremental layer saved.
    """

    #: Complete-solver ``check`` calls, result-cache hits included.  A
    #: context sends only what its box cannot decide: a query that asks for
    #: a model, undecided atoms that share a variable or include an ``==``
    #: over several variables, and a deferred fragment.
    queries: int = 0
    cache_hits: int = 0
    sat_results: int = 0
    unsat_results: int = 0
    case_splits: int = 0
    propagations: int = 0
    branch_steps: int = 0
    #: Context answers decided without the complete solver: off the
    #: narrowed box, or by a conflict delta propagation found.
    incremental_hits: int = 0
    #: Number of already-propagated prefix frames retained across queries
    #: (by context syncs and ``assume`` probes) instead of being rebuilt.
    prefix_reuses: int = 0
    #: Context answers handed to the complete solver as a from-scratch
    #: check because a frame carries a deferred fragment (a disjunction, a
    #: boolean equality or a non-linear comparison).  A linear conjunction
    #: is not counted here: the box decides it (an ``incremental_hits``
    #: entry) or the complete solver searches the context's box (a
    #: ``queries`` entry).
    context_fallbacks: int = 0
    #: Atom examinations performed by the contexts' worklist propagation
    #: (each is one bounds-consistency pass over a single atom).
    worklist_rounds: int = 0

    @property
    def interned_terms(self) -> int:
        """Number of distinct hash-consed terms alive in the intern table."""
        return interned_count()

    def as_dict(self) -> Dict[str, int]:
        return {
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "sat_results": self.sat_results,
            "unsat_results": self.unsat_results,
            "case_splits": self.case_splits,
            "propagations": self.propagations,
            "branch_steps": self.branch_steps,
            "incremental_hits": self.incremental_hits,
            "prefix_reuses": self.prefix_reuses,
            "context_fallbacks": self.context_fallbacks,
            "worklist_rounds": self.worklist_rounds,
            "interned_terms": self.interned_terms,
        }


@dataclass(frozen=True)
class SolverResult:
    """Outcome of a satisfiability query."""

    satisfiable: bool
    model: Optional[Dict[str, int]] = None

    def __bool__(self) -> bool:
        return self.satisfiable


class ConstraintSolver:
    """Decides conjunctions of MiniLang path-condition constraints."""

    def __init__(
        self,
        bound: int = DEFAULT_BOUND,
        max_branch_steps: int = 200_000,
        deadline: Optional[DeadlineBudget] = None,
    ):
        self.bound = bound
        #: Per-query limit: each ``check`` may take this many branch steps
        #: (``statistics.branch_steps`` is the lifetime total).
        self.max_branch_steps = max_branch_steps
        self._query_steps = 0
        #: Optional run-level wall-clock budget; once exhausted every
        #: complete query raises :class:`BudgetExhausted`.
        self.deadline = deadline
        self.statistics = SolverStatistics()
        #: Simplified constraints sorted by ``term_id`` -> result.  The key
        #: holds the canonical terms, so they stay interned as long as the
        #: entry lives and a later structurally equal query rebuilds the
        #: same key.  The cache is per-solver (cleared by
        #: :meth:`clear_cache`), so it cannot leak across independent runs.
        self._cache: Dict[Tuple[Term, ...], SolverResult] = {}

    # -- public API ----------------------------------------------------------

    def check(
        self,
        constraints: Sequence[Term],
        box: Optional[Tuple[Sequence[LinearAtom], Domains]] = None,
    ) -> SolverResult:
        """Decide the conjunction of ``constraints``; returns sat/unsat + model.

        ``box`` is what a :class:`~repro.solver.context.SolverContext`
        already knows about a linear conjunction: ``(atoms, domains)``, the
        atoms its narrowed box leaves undecided and that box.  Every other
        atom of ``constraints`` holds everywhere in the box, so the search
        starts from those domains instead of re-linearising ``constraints``
        and searching the full box.  It returns the same verdict and model a
        from-scratch check would: the box's closest-to-zero point, overlaid
        with the search's component models.
        """
        # Admission control before any work (including the cache probe): an
        # exhausted budget makes every check raise, so degradation is
        # uniform and predictable rather than dependent on cache luck.
        if self.deadline is not None:
            self.deadline.charge()
        self.statistics.queries += 1
        simplified = [simplify(term) for term in constraints]
        key = tuple(sorted(simplified, key=_term_id))
        cached = self._cache.get(key)
        if cached is not None:
            self.statistics.cache_hits += 1
            return cached
        self._query_steps = 0
        if box is None:
            result = self._solve(simplified)
        else:
            result = self._solve_atoms(*box)
        if result.satisfiable and result.model is not None:
            self._verify_model(simplified, result.model)
        if result.satisfiable:
            self.statistics.sat_results += 1
        else:
            self.statistics.unsat_results += 1
        self._cache[key] = result
        return result

    def is_satisfiable(self, constraints: Sequence[Term]) -> bool:
        """Convenience wrapper returning only the sat/unsat verdict."""
        return self.check(constraints).satisfiable

    def model(self, constraints: Sequence[Term]) -> Optional[Dict[str, int]]:
        """A satisfying assignment for the constraints, or None when unsat."""
        result = self.check(constraints)
        if result.satisfiable and result.model is not None:
            return dict(result.model)
        return None

    def clear_cache(self) -> None:
        self._cache.clear()

    # -- boolean structure ---------------------------------------------------

    def _solve(
        self, pending: List[Term], seed_atoms: Optional[List[LinearAtom]] = None
    ) -> SolverResult:
        """Decide ``pending`` (already simplified) plus previously collected atoms.

        ``seed_atoms`` carries the linear atoms accumulated before a ``||``
        case split so that alternatives do not round-trip atoms through term
        form and re-linearise them on every split level.
        """
        atoms: List[LinearAtom] = list(seed_atoms) if seed_atoms else []
        work = list(pending)
        while work:
            term = work.pop()
            if isinstance(term, BoolConst):
                if term.value:
                    continue
                return SolverResult(False)
            if isinstance(term, Symbol):
                if term.sort != BOOL_SORT:
                    raise SolverError(f"Integer symbol {term} used as a constraint")
                atoms.append(bool_symbol_atom(term.name, True))
                continue
            if isinstance(term, NotTerm):
                inner = term.operand
                if isinstance(inner, Symbol) and inner.sort == BOOL_SORT:
                    atoms.append(bool_symbol_atom(inner.name, False))
                    continue
                # negate() can expose new simplification opportunities, so this
                # synthesized term is the one place the loop still simplifies.
                work.append(simplify(negate(inner)))
                continue
            if isinstance(term, BinaryTerm):
                if term.op == "&&":
                    work.append(term.left)
                    work.append(term.right)
                    continue
                if term.op == "||":
                    self.statistics.case_splits += 1
                    left_result = self._solve(work + [term.left], seed_atoms=atoms)
                    if left_result.satisfiable:
                        return left_result
                    return self._solve(work + [term.right], seed_atoms=atoms)
                if term.op in COMPARISON_OPS:
                    converted = self._comparison_to_atoms(term)
                    if converted is None:
                        return SolverResult(False)
                    new_atoms, extra_terms = converted
                    atoms.extend(new_atoms)
                    work.extend(extra_terms)
                    continue
                raise SolverError(f"Unsupported boolean term {term}")
            raise SolverError(f"Unsupported constraint {term!r}")
        return self._solve_atoms(atoms)

    def _comparison_to_atoms(
        self, term: BinaryTerm
    ) -> Optional[Tuple[List[LinearAtom], List[Term]]]:
        """Convert a comparison into linear atoms (and possibly residual terms).

        Boolean-sorted comparisons (``flag == true``, ``a != b`` over booleans)
        are rewritten into equivalent boolean formulae and returned as residual
        terms.  Returns None when the comparison is trivially false.
        """
        left, right = term.left, term.right
        if left.sort == BOOL_SORT or right.sort == BOOL_SORT:
            if term.op not in ("==", "!="):
                raise SolverError(f"Ordering comparison over booleans: {term}")
            equal = BinaryTerm(
                "||",
                BinaryTerm("&&", left, right),
                BinaryTerm("&&", negate(left), negate(right)),
            )
            residual = equal if term.op == "==" else negate(equal)
            return [], [simplify(residual)]
        try:
            atom = linearize_comparison(term.op, left, right)
        except NonLinearError:
            return [], [self._eliminate_nonlinear(term)]
        if atom.is_trivially_false():
            return None
        if atom.is_trivially_true():
            return [], []
        return [atom], []

    def _eliminate_nonlinear(self, term: BinaryTerm) -> Term:
        """Last-resort handling of non-linear comparisons.

        The artifact programs in this reproduction only generate linear
        constraints; if a client feeds non-linear arithmetic we reject it
        explicitly rather than silently mis-deciding it.
        """
        raise SolverError(f"Non-linear constraint is outside the decidable fragment: {term}")

    # -- linear core ---------------------------------------------------------

    def _solve_atoms(
        self, atoms: Sequence[LinearAtom], domains: Optional[Domains] = None
    ) -> SolverResult:
        # Split every != atom into two < alternatives (ints: <= with shift).
        definite: List[LinearAtom] = []
        disequalities: List[LinearAtom] = []
        for atom in atoms:
            if atom.is_trivially_true():
                continue
            if atom.is_trivially_false():
                return SolverResult(False)
            if atom.op == NE:
                disequalities.append(atom)
            else:
                definite.append(atom)
        return self._solve_with_splits(definite, disequalities, domains)

    def _solve_with_splits(
        self,
        definite: List[LinearAtom],
        disequalities: List[LinearAtom],
        domains: Optional[Domains],
    ) -> SolverResult:
        if not disequalities:
            return self._solve_box(definite, domains)
        head, rest = disequalities[0], disequalities[1:]
        self.statistics.case_splits += 1
        # expr != 0  ==>  expr <= -1  or  -expr <= -1
        less = LinearAtom(head.expr.shift(1), LE)
        greater = LinearAtom(head.expr.negate().shift(1), LE)
        for alternative in (less, greater):
            result = self._solve_with_splits(definite + [alternative], rest, domains)
            if result.satisfiable:
                return result
        return SolverResult(False)

    def _solve_box(
        self, atoms: List[LinearAtom], domains: Optional[Domains] = None
    ) -> SolverResult:
        """Search ``domains`` (the full box when None) for a model of ``atoms``."""
        if _form_bounds_conflict(atoms):
            return SolverResult(False)
        if domains is None:
            model: Dict[str, int] = {}
        else:
            model = {name: value_closest_to_zero(interval) for name, interval in domains.items()}
        for component in _components(atoms):
            variables = set()
            for atom in component:
                variables |= atom.variables()
            if domains is None:
                start = initial_domains(variables, self.bound)
            else:
                start = {name: domains[name] for name in variables}
            result = self._search(component, start)
            if not result.satisfiable:
                return result
            model.update(result.model)
        return SolverResult(True, model)

    def _search(self, atoms: List[LinearAtom], domains: Domains) -> SolverResult:
        self.statistics.propagations += 1
        narrowed = propagate(atoms, domains)
        if narrowed is None:
            return SolverResult(False)
        # Candidate point: the box's closest-to-zero point, which keeps
        # generated test inputs readable.  Every split below descends first
        # into the half holding it and propagation drops no solution, so when
        # it satisfies every atom the bisection would return exactly it.
        candidate = {
            name: value_closest_to_zero(interval) for name, interval in narrowed.items()
        }
        if all(atom.holds(candidate) for atom in atoms):
            return SolverResult(True, candidate)
        split_candidates = [
            (interval.width, name)
            for name, interval in narrowed.items()
            if not interval.is_singleton
        ]
        if not split_candidates:
            # All singleton: the box is the failing candidate point.
            return SolverResult(False)
        self.statistics.branch_steps += 1
        self._query_steps += 1
        if self._query_steps > self.max_branch_steps:
            raise SolverError("Branch-and-bound step limit exceeded")
        # A query admitted before the deadline may still straddle it; check
        # inside the search loop so a hard query cannot overrun the budget
        # by more than one branch-and-bound step.
        if self.deadline is not None:
            self.deadline.charge()
        # Split the narrowest non-singleton interval (ties broken by name) at
        # its midpoint, trying first the half that holds the candidate point.
        _, name = min(split_candidates)
        interval = narrowed[name]
        midpoint = (interval.low + interval.high) // 2
        halves = [Interval(interval.low, midpoint), Interval(midpoint + 1, interval.high)]
        if candidate[name] > midpoint:
            halves.reverse()
        for half in halves:
            child = dict(narrowed)
            child[name] = half
            result = self._search(atoms, child)
            if result.satisfiable:
                return result
        return SolverResult(False)

    # -- model checking ------------------------------------------------------

    def _verify_model(self, constraints: Sequence[Term], model: Dict[str, int]) -> None:
        assignment: Assignment = dict(model)
        for term in constraints:
            missing = term.symbols() - set(assignment)
            for name in missing:
                assignment[name] = 0
            value = term.evaluate(_booleanize(term, assignment))
            if not value:
                raise SolverError(
                    f"Internal error: model {model} does not satisfy constraint {term}"
                )


def _form_bounds_conflict(atoms: List[LinearAtom]) -> bool:
    """Whether the atoms bound one linear form to an empty integer range.

    ``f + k <= 0`` bounds the form ``f`` (its coefficient tuple) above by
    ``-k``, and ``-f + k <= 0`` bounds it below by ``k``; ``==`` bounds both
    sides.  Atoms are ``<=`` or ``==`` with at least one variable here
    (:meth:`ConstraintSolver._solve_atoms` splits ``!=`` and drops constants).
    """
    bounds: Dict[Tuple[Tuple[str, int], ...], List[float]] = {}
    for atom in atoms:
        coeffs, constant = atom.expr.coeffs, atom.expr.constant
        if coeffs[0][1] < 0:
            coeffs = tuple((name, -coefficient) for name, coefficient in coeffs)
            low, high = constant, (constant if atom.op == EQ else math.inf)
        else:
            low, high = (-constant if atom.op == EQ else -math.inf), -constant
        known = bounds.get(coeffs)
        if known is None:
            bounds[coeffs] = [low, high]
            continue
        known[0] = max(known[0], low)
        known[1] = min(known[1], high)
        if known[0] > known[1]:
            return True
    return False


def _components(atoms: List[LinearAtom]) -> List[List[LinearAtom]]:
    """Group ``atoms`` into variable-connected components (union-find).

    Components come in the order of their first atom.  Every atom has at
    least one variable: :meth:`ConstraintSolver._solve_atoms` drops or
    decides the constant ones.
    """
    parent: Dict[str, str] = {}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    for atom in atoms:
        names = [name for name, _ in atom.expr.coeffs]
        for name in names:
            parent.setdefault(name, name)
        root = find(names[0])
        for name in names[1:]:
            other = find(name)
            if other != root:
                parent[other] = root
    groups: Dict[str, List[LinearAtom]] = {}
    for atom in atoms:
        groups.setdefault(find(atom.expr.coeffs[0][0]), []).append(atom)
    return list(groups.values())


def _booleanize(term: Term, assignment: Assignment) -> Assignment:
    """Map 0/1 integers back to booleans for boolean-sorted symbols in ``term``."""
    result: Assignment = dict(assignment)
    for symbol in _collect_symbols(term):
        if symbol.sort == BOOL_SORT and symbol.name in result:
            result[symbol.name] = bool(result[symbol.name])
    return result


def _collect_symbols(term: Term) -> List[Symbol]:
    found: List[Symbol] = []
    stack = [term]
    while stack:
        current = stack.pop()
        if isinstance(current, Symbol):
            found.append(current)
        elif isinstance(current, BinaryTerm):
            stack.append(current.left)
            stack.append(current.right)
        elif isinstance(current, (NotTerm,)):
            stack.append(current.operand)
        elif hasattr(current, "operand"):
            stack.append(current.operand)
    return found
