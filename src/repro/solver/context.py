"""Incremental solver contexts: push/pop solving along the DFS path.

Symbolic execution appends one branch constraint at a time and backtracks in
LIFO order, yet a stateless solver re-examines the *entire* path condition at
every branch.  A :class:`SolverContext` mirrors the executor's DFS stack:
``push(constraint)`` linearises only the new constraint and re-propagates
interval domains starting from the already-narrowed domains of the prefix,
and ``pop()`` restores the parent frame, un-indexing only the popped frame's
atoms.  This is the incremental regime Pinaka-style solvers exploit (see
PAPERS.md, "Symbolic Execution meets Incremental Solving").

A push pays only for work not done before:

* each constraint is linearised once per context (memoised by its
  simplified term's ``term_id``; term ids are never reused);
* a frame depends only on the frames below it, so each frame keeps the
  frames built on it (``children``, keyed by constraint).  Popping a frame
  drops its own children, so only the children of the current path stay
  alive;
* each frame carries its ``undecided`` atoms (the parent's plus its own,
  minus those its box satisfies everywhere) and whether any frame up to it
  deferred a fragment, so a query needs no rescan of the prefix.  Only an
  inherited atom that reads a variable whose interval moved is re-tested.

A branch probe (``assume``) is a child frame, not a push: the probe's frame
is built on the top (or taken from the top's ``children``) and decided in
place.  It never joins the stack, and its atoms join the atom index only
while the general worklist propagates them.  When the engine then descends
into the branch, ``push`` reuses the frame, propagates nothing and indexes
its atoms.

Almost every frame is one atom over one variable: on a seed-0 pass over the
cold pairs of the five histories, 54,915 of 55,089 frames.  Such an atom is
applied to its variable's interval directly
(:func:`~repro.solver.intervals.narrow_one`): one application is its
fixpoint, and unless another active atom reads the variable, no inherited
atom needs re-testing.  The frame then costs a dict copy of a box of at
most about ten variables, or nothing when no bound moved.

Otherwise propagation is *worklist-based*: the context indexes every active
atom by the variables it mentions, and the worklist is seeded with only the
delta atoms -- a prefix atom is re-examined only when one of its variables'
domains actually narrows.  Whole-prefix re-propagation made one push
O(depth) and one lookahead O(depth²); the worklist makes a frame
O(delta + touched constraint graph).  A one-variable atom that narrows a
variable other atoms read takes this path too, from the parent's box, so
``worklist_rounds`` counts the same examinations either way.

Soundness/completeness split, one decision routine for ``check`` (the top
frame) and ``assume`` (a probe frame):

* if delta propagation empties a domain, the conjunction is UNSAT -- final,
  no full solve needed (an *incremental hit*);
* if no active atom is left undecided over the narrowed box and no
  deferred (disjunctive / boolean-equality) term is pending, the conjunction
  is SAT with a model read off the box (also an incremental hit);
* a verdict-only query (``is_satisfiable``, ``assume_is_satisfiable``)
  whose undecided atoms are each ``<=`` or ``!=`` and pairwise share no
  variable is decided off the box too: a ``<=`` atom is satisfiable iff its
  expression's minimum over the box (reached at an integer corner) is at
  most 0, a ``!=`` atom unless its expression is the constant 0, and atoms
  over disjoint variables are jointly satisfiable over a product box iff
  each one is.  Every other active atom holds everywhere in the box, so the
  verdict is exact (an incremental hit);
* otherwise, for a linear conjunction, the shared
  :class:`~repro.solver.core.ConstraintSolver` searches the context's own
  box: it gets the undecided atoms and the narrowed domains, so nothing is
  re-simplified or re-linearised and the search does not start from the
  full box.  Every other atom holds everywhere in that box, so the verdict
  and the model (the box's closest-to-zero point, overlaid with the
  search's component models) are those of a from-scratch check.  This is
  where an ``==`` atom over several variables, atoms that share a variable
  and every query asking for a model go.  The query still goes through
  ``check``'s result cache (keyed by interned term ids), deadline
  admission, step limit and model verification;
* a prefix with a deferred fragment (a disjunction, a boolean equality or a
  non-linear comparison) falls back to a from-scratch ``check`` of the
  whole prefix -- the only case ``context_fallbacks`` counts.

``check`` and ``assume`` return a model, always the one a from-scratch
check returns; the branch probes ``is_satisfiable`` and
``assume_is_satisfiable`` return a model-free answer whenever the box
decides.

The statistics land in the shared solver's
:class:`~repro.solver.core.SolverStatistics` (``incremental_hits``,
``prefix_reuses``, ``context_fallbacks``, ``worklist_rounds``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.solver.core import ConstraintSolver, SolverResult
from repro.solver.intervals import (
    Domains,
    Inconsistent,
    Interval,
    atom_definitely_satisfied,
    atom_possibly_satisfied,
    narrow_one,
    propagate_delta,
    value_closest_to_zero,
)
from repro.solver.linear import (
    EQ,
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
    BinaryTerm,
    BoolConst,
    NotTerm,
    Symbol,
    Term,
    negate,
)


#: The model-free answers; results are frozen, so every probe shares them.
_SAT = SolverResult(True)
_UNSAT = SolverResult(False)


class _Frame:
    """One constraint on its prefix: its delta atoms and the resulting domains.

    A frame depends only on the frames below it, so nothing but its
    ``children`` changes once it is built, and it is reused whenever the
    same constraint is pushed or probed on the same parent again.

    Attributes:
        constraint: the simplified term.
        atoms: linear atoms contributed by this constraint (its conjunctive
            fragment).
        domains: narrowed domains for the whole prefix, or None when
            propagation detected a conflict.  Never mutated once built, so a
            frame that narrows nothing shares its parent's.
        unsat: True when the conjunction up to this frame is proven
            unsatisfiable.
        undecided: active atoms (this frame's and every frame's below) that
            ``domains`` does not satisfy everywhere.  Domains only narrow up
            the stack, so an atom settled by the parent's box stays settled;
            the fast SAT path needs this to be empty.
        has_deferred: True when this frame or a frame below it carries a
            fragment the incremental layer cannot decide (disjunctions,
            boolean equalities, non-linear leftovers); it disables the fast
            SAT path but never the fast UNSAT path.
        children: frames built on this one, keyed by their simplified
            constraint's term id; cleared when this frame is popped.
    """

    __slots__ = ("constraint", "atoms", "domains", "unsat", "undecided", "has_deferred", "children")

    def __init__(
        self,
        constraint: Term,
        atoms: Tuple[LinearAtom, ...],
        domains: Optional[Domains],
        unsat: bool,
        undecided: Tuple[LinearAtom, ...] = (),
        has_deferred: bool = False,
    ):
        self.constraint = constraint
        self.atoms = atoms
        self.domains = domains
        self.unsat = unsat
        self.undecided = undecided
        self.has_deferred = has_deferred
        self.children: Dict[int, _Frame] = {}


class SolverContext:
    """A push/pop satisfiability context sharing one :class:`ConstraintSolver`.

    Args:
        solver: the underlying complete solver (shared across contexts so its
            result cache and statistics accumulate); a fresh one is created
            when omitted.
    """

    def __init__(self, solver: Optional[ConstraintSolver] = None):
        self.solver = solver or ConstraintSolver()
        #: The empty prefix, below every pushed frame; its ``children`` are
        #: the frames built on the empty stack.
        self._root = _Frame(BoolConst(True), (), {}, False)
        self._frames: List[_Frame] = []
        #: Simplified constraint's term id -> its linearisation.  Term ids are
        #: never reused, so an entry can never describe another term.
        self._linearized: Dict[int, Tuple[Tuple[LinearAtom, ...], bool, bool]] = {}
        #: Active atoms indexed by the variables they mention, maintained
        #: incrementally as frames are pushed and popped; this is what lets a
        #: frame re-examine an atom only when one of its variables narrows.
        self._atoms_by_var: Dict[str, List[LinearAtom]] = {}
        #: Total (atom, variable) index entries, kept incrementally so the
        #: worklist's step cap never needs an O(active atoms) rescan.
        self._indexed_entries = 0

    # -- stack discipline -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def depth(self) -> int:
        return len(self._frames)

    def constraints(self) -> Tuple[Term, ...]:
        """The pushed constraints, oldest first (simplified, interned)."""
        return tuple(frame.constraint for frame in self._frames)

    def current_domains(self) -> Domains:
        """A copy of the narrowed interval domains of the current prefix.

        Empty for an empty context; also empty when the prefix is already
        known to be unsatisfiable (there is no box left to describe).
        """
        domains = self._top().domains
        return dict(domains) if domains is not None else {}

    def push(self, constraint: Term) -> None:
        """Append one constraint, linearising and propagating only the delta.

        Pushing a constraint the current top already had probed or pushed on
        it (an ``assume`` probe followed by descending into that branch)
        reuses the frame built then and propagates nothing.
        """
        frame = self._child(constraint)
        self._index_atoms(frame.atoms)
        self._frames.append(frame)

    def _top(self) -> _Frame:
        return self._frames[-1] if self._frames else self._root

    def _child(self, constraint: Term) -> _Frame:
        """The frame ``constraint`` makes on the top: built once, then reused."""
        term = simplify(constraint)
        parent = self._top()
        frame = parent.children.get(term.term_id)
        if frame is None:
            frame = parent.children[term.term_id] = self._new_frame(term, parent)
        return frame

    def _new_frame(self, term: Term, parent: _Frame) -> _Frame:
        """Build the frame ``term`` makes on ``parent``, the top.

        A delta of one atom over one variable is applied to that variable's
        interval directly.  Any other delta seeds a variable-indexed
        worklist (:func:`~repro.solver.intervals.propagate_delta`): a prefix
        atom is re-examined only when one of its variables' domains narrows,
        so a frame costs O(delta + touched constraint graph) instead of
        O(prefix).  The index is left as it was: ``push`` indexes the
        frame's atoms, a probe never does.
        """
        if parent.unsat:
            # Anything conjoined to an unsatisfiable prefix stays unsatisfiable.
            return _Frame(term, (), None, True)
        key = term.term_id
        linearized = self._linearized.get(key)
        if linearized is None:
            linearized = self._linearized[key] = _linearize_delta(term)
        atoms, deferred, definitely_false = linearized
        if definitely_false:
            return _Frame(term, (), None, True)
        has_deferred = deferred or parent.has_deferred
        parent_domains = parent.domains
        inherited = parent.undecided
        if not atoms:
            # Same box as the parent: share its (never mutated) domains.
            return _Frame(term, (), parent_domains, False, inherited, has_deferred)
        if len(atoms) == 1 and len(atoms[0].expr.coeffs) == 1:
            frame = self._one_variable_frame(term, atoms, parent_domains, inherited, has_deferred)
            if frame is not None:
                return frame

        domains = dict(parent_domains)
        bound = self.solver.bound
        for atom in atoms:
            for name, _ in atom.expr.coeffs:
                if name not in domains:
                    domains[name] = Interval(-bound, bound)
        # The delta atoms are indexed while they propagate, so narrowing one
        # of their own variables re-enqueues them like any other dependent
        # atom (a one-variable atom excepted: it is at its fixpoint once
        # applied).
        self._index_atoms(atoms)
        narrowed, steps = propagate_delta(
            self._atoms_by_var,
            atoms,
            domains,
            max_steps=64 * max(1, self._indexed_entries),
        )
        self._unindex_atoms(atoms)
        self.solver.statistics.worklist_rounds += steps
        if narrowed is None:
            return _Frame(term, atoms, None, True)
        # Only an atom that reads a variable whose interval moved can have
        # become settled; the others keep the parent's verdict.
        moved = {
            name for name, interval in narrowed.items() if parent_domains.get(name) is not interval
        }
        undecided = tuple(
            atom
            for atom in inherited
            if not any(name in moved for name, _ in atom.expr.coeffs)
            or not atom_definitely_satisfied(atom, narrowed)
        ) + tuple(atom for atom in atoms if not atom_definitely_satisfied(atom, narrowed))
        return _Frame(term, atoms, narrowed, False, undecided, has_deferred)

    def _one_variable_frame(
        self,
        term: Term,
        atoms: Tuple[LinearAtom],
        parent_domains: Domains,
        inherited: Tuple[LinearAtom, ...],
        has_deferred: bool,
    ) -> Optional[_Frame]:
        """The common frame: one atom over one variable, applied directly.

        One application is the atom's own fixpoint, so this is the general
        worklist's single round, without its queue.  Returns None when the
        atom narrows a variable another active atom reads: their
        re-examination is the general worklist's, which then runs from the
        parent's box.  Otherwise either the interval did not move or no
        inherited atom reads it, so every inherited verdict stands and
        ``undecided`` is the parent's plus, possibly, this atom.
        """
        (atom,) = atoms
        name = atom.expr.coeffs[0][0]
        interval = parent_domains.get(name)
        fresh = interval is None
        if fresh:
            bound = self.solver.bound
            interval = Interval(-bound, bound)
        try:
            narrowed = narrow_one(atom, interval)
        except Inconsistent:
            self.solver.statistics.worklist_rounds += 1
            return _Frame(term, atoms, None, True)
        if narrowed is not interval and name in self._atoms_by_var:
            return None
        self.solver.statistics.worklist_rounds += 1
        if narrowed is interval and not fresh:
            # Same box as the parent: share its (never mutated) domains.
            domains = parent_domains
        else:
            domains = dict(parent_domains)
            domains[name] = narrowed
        undecided = inherited
        # A one-variable ``<=`` or ``==`` atom holds everywhere in the
        # interval it narrowed; only a ``!=`` atom can stay undecided.
        if atom.op == NE and not atom_definitely_satisfied(atom, domains):
            undecided += (atom,)
        return _Frame(term, atoms, domains, False, undecided, has_deferred)

    def pop(self) -> None:
        """Drop the most recent constraint, restoring the parent frame."""
        if not self._frames:
            raise IndexError("pop from an empty SolverContext")
        frame = self._frames.pop()
        # Only the frames on the stack keep their children, so the cached
        # frames stay within the children of the current path.
        frame.children.clear()
        self._unindex_atoms(frame.atoms)

    def pop_to(self, depth: int) -> None:
        """Pop frames until the context holds exactly ``depth`` constraints."""
        while len(self._frames) > depth:
            self.pop()

    def sync_to(self, constraints: Sequence[Term]) -> int:
        """Align the stack with ``constraints`` by longest-common-prefix reuse.

        Pops down to the longest common prefix and pushes only the remaining
        suffix, so consecutive queries along a DFS pay for their delta
        instead of a rebuild-from-empty.  Returns the number of retained
        frames, which is also added to ``prefix_reuses`` (counting retained
        frames, not pushes, means a regression to full rebuilds shows up as
        the ratio collapsing).
        """
        common = 0
        for frame, want in zip(self._frames, constraints):
            if frame.constraint is not want:
                break
            common += 1
        self.solver.statistics.prefix_reuses += common
        self.pop_to(common)
        for term in constraints[common:]:
            self.push(term)
        return common

    # -- queries --------------------------------------------------------------

    def is_satisfiable(self) -> bool:
        return self.check(with_model=False).satisfiable

    def check(self, with_model: bool = True) -> SolverResult:
        """Decide the conjunction of all pushed constraints.

        ``with_model=False`` (:meth:`is_satisfiable`) asks for the verdict
        only, which the box answers more often and without a model.
        """
        return self._decide(self._top(), with_model)

    def assume(self, constraint: Term, with_model: bool = True) -> SolverResult:
        """Decide ``conjunction(stack + [constraint])`` without growing the stack.

        The probe's frame is built on the top, or taken from the top's
        ``children``, and decided in place; a later ``push`` of the same
        constraint reuses it.
        """
        # Every frame below the probe is prefix work the probe did not redo.
        self.solver.statistics.prefix_reuses += len(self._frames)
        return self._decide(self._child(constraint), with_model)

    def assume_is_satisfiable(self, constraint: Term) -> bool:
        return self.assume(constraint, with_model=False).satisfiable

    def _decide(self, frame: _Frame, with_model: bool) -> SolverResult:
        """Decide the conjunction up to ``frame``: the top, or a probe on it."""
        statistics = self.solver.statistics
        if frame.unsat:
            statistics.incremental_hits += 1
            return _UNSAT
        if frame.has_deferred:
            statistics.context_fallbacks += 1
            return self.solver.check(self._constraints_to(frame))
        undecided = frame.undecided
        domains = frame.domains
        if not undecided:
            statistics.incremental_hits += 1
            if not with_model:
                return _SAT
            return SolverResult(
                True,
                {name: value_closest_to_zero(interval) for name, interval in domains.items()},
            )
        if not with_model:
            verdict = _independent_verdict(undecided, domains)
            if verdict is not None:
                statistics.incremental_hits += 1
                return _SAT if verdict else _UNSAT
        # Every other active atom holds everywhere in the box, so the
        # complete solver searches only the box's undecided atoms.
        return self.solver.check(self._constraints_to(frame), box=(undecided, domains))

    def _constraints_to(self, frame: _Frame) -> Tuple[Term, ...]:
        """The constraints up to ``frame``: the stack's, plus a probe's own."""
        constraints = self.constraints()
        return constraints if frame is self._top() else constraints + (frame.constraint,)

    # -- internals -------------------------------------------------------------

    def _index_atoms(self, atoms: Sequence[LinearAtom]) -> None:
        by_var = self._atoms_by_var
        for atom in atoms:
            for name, _ in atom.expr.coeffs:
                entries = by_var.get(name)
                if entries is None:
                    by_var[name] = [atom]
                else:
                    entries.append(atom)
                self._indexed_entries += 1

    def _unindex_atoms(self, atoms: Sequence[LinearAtom]) -> None:
        # Atoms leave in the reverse of the order they joined, and each
        # per-variable list's tail is exactly the leaving atoms.
        for atom in reversed(atoms):
            for name, _ in atom.expr.coeffs:
                entries = self._atoms_by_var[name]
                entries.pop()
                self._indexed_entries -= 1
                if not entries:
                    del self._atoms_by_var[name]


def _independent_verdict(atoms: Sequence[LinearAtom], domains: Domains) -> Optional[bool]:
    """Decide ``atoms`` over the box when they are independent; else None.

    They are when every atom is ``<=`` or ``!=`` and no two share a
    variable.  Atoms over disjoint variables are jointly satisfiable over a
    product box iff each one is, and each one is decided by its
    expression's bounds (:func:`~repro.solver.intervals.atom_possibly_satisfied`).
    """
    seen = set()
    for atom in atoms:
        if atom.op == EQ:
            return None
        for name, _ in atom.expr.coeffs:
            if name in seen:
                return None
            seen.add(name)
    return all(atom_possibly_satisfied(atom, domains) for atom in atoms)


def _linearize_delta(term: Term) -> Tuple[Tuple[LinearAtom, ...], bool, bool]:
    """Split one constraint into linear atoms plus deferred residue.

    Returns ``(atoms, deferred, definitely_false)``, where ``deferred`` is
    True when some fragment is left undecided.  Only the purely conjunctive
    integer fragment becomes atoms; anything requiring case splitting is
    deferred to the complete solver.
    """
    atoms: List[LinearAtom] = []
    deferred = False
    work = [term]
    while work:
        current = work.pop()
        if isinstance(current, BoolConst):
            if current.value:
                continue
            return (), False, True
        if isinstance(current, Symbol):
            if current.sort != BOOL_SORT:
                deferred = True
                continue
            atoms.append(bool_symbol_atom(current.name, True))
            continue
        if isinstance(current, NotTerm):
            inner = current.operand
            if isinstance(inner, Symbol) and inner.sort == BOOL_SORT:
                atoms.append(bool_symbol_atom(inner.name, False))
                continue
            work.append(negate(inner))
            continue
        if isinstance(current, BinaryTerm):
            if current.op == "&&":
                work.append(current.left)
                work.append(current.right)
                continue
            if current.op in COMPARISON_OPS:
                left, right = current.left, current.right
                if left.sort == BOOL_SORT or right.sort == BOOL_SORT:
                    deferred = True
                    continue
                try:
                    atom = linearize_comparison(current.op, left, right)
                except NonLinearError:
                    deferred = True
                    continue
                if atom.is_trivially_false():
                    return (), False, True
                if atom.is_trivially_true():
                    continue
                atoms.append(atom)
                continue
            # disjunctions and anything else: complete solver's business
            deferred = True
            continue
        deferred = True
    return tuple(atoms), deferred, False
