"""Interval (bounds-consistency) propagation for linear integer constraints.

The propagator narrows per-variable integer intervals until a fixed point,
given a conjunction of :class:`~repro.solver.linear.LinearAtom` constraints.
It is the work-horse of the decision procedure: on the mostly-single-variable
constraints produced by the artifact programs it decides satisfiability
outright, and for harder conjunctions it shrinks the search box that the
branch-and-bound search then explores.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.solver.linear import EQ, LE, NE, LinearAtom

#: Default symmetric bound for symbolic integers (documented in DESIGN.md).
DEFAULT_BOUND = 1 << 16


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[low, high]``; empty when ``low > high``."""

    low: int
    high: int

    @property
    def is_singleton(self) -> bool:
        return self.low == self.high

    @property
    def width(self) -> int:
        return max(0, self.high - self.low + 1)

    def __str__(self) -> str:
        return f"[{self.low}, {self.high}]"


Domains = Dict[str, Interval]


class Inconsistent(Exception):
    """Raised when narrowing empties some variable's interval."""


def initial_domains(variables: Iterable[str], bound: int = DEFAULT_BOUND) -> Domains:
    """A fresh domain map giving every variable the default interval."""
    return {name: Interval(-bound, bound) for name in variables}


def propagate(atoms: List[LinearAtom], domains: Domains, max_rounds: int = 64) -> Optional[Domains]:
    """Narrow ``domains`` using bounds consistency on ``atoms``.

    Returns the narrowed domains, or ``None`` when the constraint set is
    detected to be unsatisfiable over the given box.  ``!=`` atoms only
    propagate when their left-hand side is constant over the current box or
    when they can trim an endpoint.
    """
    current = dict(domains)
    try:
        for _ in range(max_rounds):
            changed = False
            for atom in atoms:
                changed |= _propagate_atom(atom, current)
            if not changed:
                break
        return current
    except Inconsistent:
        return None


def propagate_delta(
    atoms_by_var: Mapping[str, Sequence[LinearAtom]],
    delta: Iterable[LinearAtom],
    domains: Domains,
    max_steps: Optional[int] = None,
) -> Tuple[Optional[Domains], int]:
    """Worklist propagation seeded only by the ``delta`` atoms.

    ``atoms_by_var`` indexes *every* active atom (prefix and delta) by the
    variables it mentions; an atom is (re-)examined only when it is in the
    seed or one of its variables' domains has just narrowed.  Because
    bounds-consistency narrowing is monotone, this chaotic iteration
    converges to the same fixed point as re-running :func:`propagate` over
    the whole atom set, while touching only the part of the constraint graph
    the delta can actually influence -- this is what makes an incremental
    ``push`` O(delta) instead of O(prefix).

    ``domains`` is narrowed in place and must already contain an interval
    for every variable of every indexed atom.  Returns ``(domains, steps)``
    where ``steps`` counts atom examinations, or ``(None, steps)`` when a
    conflict proves the conjunction unsatisfiable.  ``max_steps`` bounds the
    examinations (mirroring :func:`propagate`'s round cap); on exhaustion
    the current -- still sound, possibly wider -- box is returned.
    """
    queue = deque(delta)
    # Keyed on identity: every queued atom is alive in ``atoms_by_var`` or
    # ``delta`` for the whole call, and hashing the frozen dataclass on each
    # enqueue would cost more than the examination it guards.
    queued = {id(atom) for atom in queue}
    if max_steps is None:
        max_steps = 64 * max(1, sum(len(atoms) for atoms in atoms_by_var.values()))
    steps = 0
    try:
        while queue:
            steps += 1
            if steps > max_steps:
                break
            atom = queue.popleft()
            queued.discard(id(atom))
            coeffs = atom.expr.coeffs
            before = [domains[name] for name, _ in coeffs]
            if not _propagate_atom(atom, domains):
                continue
            # One application of a one-variable atom already reaches its own
            # fixpoint (its bounds do not depend on the box), and so does a
            # ``<=`` atom: each bound it narrows is the side the other
            # variables' limits do not read.  Narrowing their variables does
            # not re-enqueue them; an ``==`` atom narrows both sides and does.
            settled = id(atom) if len(coeffs) == 1 or atom.op == LE else None
            # The narrowing helpers store a new Interval only when it changes.
            for (name, _), interval in zip(coeffs, before):
                if domains[name] is interval:
                    continue
                for dependent in atoms_by_var.get(name, ()):
                    ident = id(dependent)
                    if ident not in queued and ident != settled:
                        queue.append(dependent)
                        queued.add(ident)
        return domains, steps
    except Inconsistent:
        return None, steps


def _propagate_atom(atom: LinearAtom, domains: Domains) -> bool:
    """Apply ``atom`` once to ``domains`` in place; True when a bound moved.

    Raises :class:`Inconsistent` when a domain empties.
    """
    coeffs = atom.expr.coeffs
    if len(coeffs) == 1:
        name = coeffs[0][0]
        interval = domains[name]
        narrowed = narrow_one(atom, interval)
        if narrowed is interval:
            return False
        domains[name] = narrowed
        return True
    if atom.op == NE:
        low, high = _expr_bounds(atom, domains)
        if low == high == 0:
            raise Inconsistent()
        return False
    constant = atom.expr.constant
    changed = _propagate_upper(coeffs, constant, 1, domains)
    if atom.op == EQ:
        # expr == 0 also implies -expr <= 0.
        changed |= _propagate_upper(coeffs, constant, -1, domains)
    return changed


def narrow_one(atom: LinearAtom, interval: Interval) -> Interval:
    """``interval`` narrowed by ``atom``, an atom over that one variable.

    One application is the atom's fixpoint: nothing else bounds the
    variable.  Returns ``interval`` itself when no bound moves, and raises
    :class:`Inconsistent` when it empties.  A ``<=`` or ``==`` atom holds
    everywhere in the interval it returns; a ``!=`` atom only trims an
    endpoint that equals the excluded value.
    """
    ((_, coeff),) = atom.expr.coeffs
    constant = atom.expr.constant
    if atom.op != NE:
        narrowed = _upper(interval, coeff, -constant)
        if atom.op == EQ:
            # expr == 0 also implies -expr <= 0.
            narrowed = _upper(narrowed, -coeff, constant)
        return narrowed
    # x != -constant/coeff, when that is an integer.  A singleton domain
    # holding it empties.
    if constant % coeff:
        return interval
    excluded = -constant // coeff
    low, high = interval.low, interval.high
    if low == excluded:
        low += 1
    if high == excluded:
        high -= 1
    if low > high:
        raise Inconsistent()
    if low == interval.low and high == interval.high:
        return interval
    return Interval(low, high)


def _propagate_upper(
    coeffs: Tuple[Tuple[str, int], ...], constant: int, sign: int, domains: Domains
) -> bool:
    """Propagate ``sign * (sum(coeff * x) + constant) <= 0``, one variable at a time."""
    if not coeffs:
        if sign * constant > 0:
            raise Inconsistent()
        return False
    changed = False
    for name, coeff in coeffs:
        # The least value the other terms take over the current box.
        rest_min = 0
        for other, other_coeff in coeffs:
            if other != name:
                interval = domains[other]
                other_coeff *= sign
                rest_min += other_coeff * (interval.low if other_coeff > 0 else interval.high)
        interval = domains[name]
        narrowed = _upper(interval, sign * coeff, -sign * constant - rest_min)
        if narrowed is not interval:
            domains[name] = narrowed
            changed = True
    return changed


def _upper(interval: Interval, coeff: int, limit: int) -> Interval:
    """``interval`` narrowed by ``coeff * x <= limit`` (itself when no bound moves)."""
    if coeff > 0:
        high = limit // coeff  # floor division, for either sign of ``limit``
        if high >= interval.high:
            return interval
        if high < interval.low:
            raise Inconsistent()
        return Interval(interval.low, high)
    low = -(-limit // coeff)  # ceil(limit / coeff) with coeff < 0
    if low <= interval.low:
        return interval
    if low > interval.high:
        raise Inconsistent()
    return Interval(low, interval.high)


def _expr_bounds(atom: LinearAtom, domains: Domains) -> Tuple[int, int]:
    """Min and max of the atom's expression over the current box."""
    low = atom.expr.constant
    high = atom.expr.constant
    for name, coeff in atom.expr.coeffs:
        interval = domains[name]
        if coeff > 0:
            low += coeff * interval.low
            high += coeff * interval.high
        else:
            low += coeff * interval.high
            high += coeff * interval.low
    return low, high


def atom_definitely_satisfied(atom: LinearAtom, domains: Domains) -> bool:
    """True when the atom holds for every assignment in the box."""
    low, high = _expr_bounds(atom, domains)
    if atom.op == LE:
        return high <= 0
    if atom.op == EQ:
        return low == high == 0
    return high < 0 or low > 0  # NE


def atom_possibly_satisfied(atom: LinearAtom, domains: Domains) -> bool:
    """True when some integer point of the box satisfies a ``<=`` or ``!=`` atom.

    A ``<=`` atom's expression takes its minimum at a corner of the box,
    which is an integer point.  A ``!=`` atom fails only where its
    expression is the constant 0.  An ``==`` atom may miss every integer
    point between its expression's bounds, so it needs a search.
    """
    low, high = _expr_bounds(atom, domains)
    if atom.op == LE:
        return low <= 0
    if atom.op == NE:
        return not low == high == 0
    raise ValueError(f"an == atom is not decided by its bounds: {atom}")


def value_closest_to_zero(interval: Interval) -> int:
    """The integer of smallest magnitude inside a non-empty interval.

    This is the shared model-extraction rule: both the complete solver's
    branch-and-bound and the incremental context's fast SAT path pick the
    point nearest zero so generated test inputs stay readable, and using one
    helper keeps the two from drifting apart.
    """
    if interval.low <= 0 <= interval.high:
        return 0
    return interval.low if interval.low > 0 else interval.high
