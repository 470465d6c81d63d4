"""Symbolic terms: the expression language shared by the solver and the symbolic executor.

A :class:`Term` is an immutable expression tree over integer and boolean
symbols, constants and operators.  Path conditions are conjunctions of
boolean-sorted terms.  The same representation is used for the symbolic
values stored in symbolic states (e.g. ``Y + X`` in Figure 1 of the paper).

Terms are *hash-consed at construction*: every way of building a term -- a
class call such as ``BinaryTerm("+", x, y)``, an operator overload such as
``x + 1``, :func:`substitute`, simplification or decoding -- goes through
the intern table and returns the one canonical instance per structurally
distinct term.  Hence

* equality is object identity: structurally equal terms *are* the same
  object,
* ``hash(t)`` is ``t.term_id``, a small integer assigned at first
  construction and never reused (so iteration over term sets is the same
  from run to run), and
* caches key on terms -- tuples and frozensets of terms, ``(name, term)``
  pairs -- never on string renderings.  A key that holds its terms keeps
  them interned for as long as the entry lives, so a later structurally
  equal input rebuilds the same key.
"""

from __future__ import annotations

import itertools
import operator
import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, Union

INT_SORT = "int"
BOOL_SORT = "bool"

ConcreteValue = Union[int, bool]
Assignment = Dict[str, ConcreteValue]


class EvaluationError(Exception):
    """Raised when a term cannot be evaluated under a given assignment."""


# -- interning ----------------------------------------------------------------

#: Canonical instance per structural key.  Keys use the ``id`` of the
#: (already canonical) children, so building one is O(1) instead of
#: O(term size).
#:
#: The table holds its terms *weakly*: once nothing outside the interning
#: machinery references a term (no live state, path condition, cache entry or
#: parent term), its entry evaporates, so the table tracks the live term
#: population instead of every term ever built -- repeated independent runs
#: in one process do not grow it monotonically.  Weakness is safe by
#: construction: a composite entry's key embeds ``id(child)``, and the entry's
#: value holds its children strongly, so a child's id can never be recycled
#: while any live entry mentions it.  A term is evicted only once it is
#: unreachable, so no one can observe a second instance of its structure.
_INTERN_TABLE: "weakref.WeakValueDictionary[tuple, Term]" = weakref.WeakValueDictionary()
_TERM_IDS = itertools.count()


class _Interned(type):
    """Metaclass making construction return the canonical instance.

    Each concrete term class provides ``_key``, a static method with the
    same signature as the class's constructor that returns the structural
    intern-table key.
    """

    def __call__(cls, *args, **kwargs):
        key = cls._key(*args, **kwargs)
        term = _INTERN_TABLE.get(key)
        if term is None:
            term = super().__call__(*args, **kwargs)
            object.__setattr__(term, "term_id", next(_TERM_IDS))
            _INTERN_TABLE[key] = term
        return term


def interned_count() -> int:
    """Number of distinct terms currently alive in the intern table.

    Interning is weak, so this tracks the *live* term population: terms
    whose last outside reference is dropped disappear from the count (after
    garbage collection, for terms kept alive by reference cycles).
    """
    return len(_INTERN_TABLE)


# -- operators ----------------------------------------------------------------

#: Operator groups; the solver relies on these sets to classify terms.
ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%"})
COMPARISON_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})
LOGICAL_OPS = frozenset({"&&", "||"})

_NEGATED_COMPARISON = {
    "==": "!=",
    "!=": "==",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}


def _java_div(left: int, right: int) -> int:
    """Integer division truncating toward zero (Java/C semantics)."""
    quotient = abs(left) // abs(right)
    if (left < 0) != (right < 0):
        quotient = -quotient
    return quotient


def _java_mod(left: int, right: int) -> int:
    """Remainder consistent with :func:`_java_div`."""
    return left - _java_div(left, right) * right


_OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _java_div,
    "%": _java_mod,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "&&": lambda left, right: bool(left) and bool(right),
    "||": lambda left, right: bool(left) or bool(right),
}


def apply_op(op: str, left: ConcreteValue, right: ConcreteValue) -> ConcreteValue:
    """The concrete semantics of binary operator ``op`` (Java integer division)."""
    function = _OPERATORS.get(op)
    if function is None:
        raise EvaluationError(f"Unknown operator {op!r}")
    if right == 0 and op in ("/", "%"):
        raise EvaluationError("Division by zero" if op == "/" else "Modulo by zero")
    return function(left, right)


# -- term classes -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Term(metaclass=_Interned):
    """Base class of all symbolic terms.

    Every instance is the canonical one for its structure, so terms compare
    by identity and hash by their ``term_id``.
    """

    @property
    def sort(self) -> str:
        raise NotImplementedError

    def symbols(self) -> FrozenSet[str]:
        """The names of all symbolic variables occurring in the term."""
        raise NotImplementedError

    def evaluate(self, assignment: Assignment) -> ConcreteValue:
        """Evaluate the term under a concrete assignment of its symbols."""
        raise NotImplementedError

    def __hash__(self) -> int:
        return self.term_id

    def __str__(self) -> str:
        """The term's text, rendered once and cached on the canonical
        instance (subterms render through their own caches)."""
        text = self.__dict__.get("_text")
        if text is None:
            text = self._render()
            object.__setattr__(self, "_text", text)
        return text

    def _render(self) -> str:
        raise NotImplementedError

    # Convenience constructors so engine code reads naturally.

    def __add__(self, other: "Term") -> "Term":
        return BinaryTerm("+", self, _as_term(other))

    def __sub__(self, other: "Term") -> "Term":
        return BinaryTerm("-", self, _as_term(other))

    def __mul__(self, other: "Term") -> "Term":
        return BinaryTerm("*", self, _as_term(other))


@dataclass(frozen=True, eq=False)
class IntConst(Term):
    """An integer constant."""

    value: int

    @staticmethod
    def _key(value):
        return ("i", value)

    @property
    def sort(self) -> str:
        return INT_SORT

    def symbols(self) -> FrozenSet[str]:
        return frozenset()

    def evaluate(self, assignment: Assignment) -> ConcreteValue:
        return self.value

    def _render(self) -> str:
        return str(self.value)


@dataclass(frozen=True, eq=False)
class BoolConst(Term):
    """A boolean constant."""

    value: bool

    @staticmethod
    def _key(value):
        return ("b", value)

    @property
    def sort(self) -> str:
        return BOOL_SORT

    def symbols(self) -> FrozenSet[str]:
        return frozenset()

    def evaluate(self, assignment: Assignment) -> ConcreteValue:
        return self.value

    def _render(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True, eq=False)
class Symbol(Term):
    """A symbolic input variable, e.g. the ``X`` standing for argument ``x``."""

    name: str
    symbol_sort: str = INT_SORT

    @staticmethod
    def _key(name, symbol_sort=INT_SORT):
        return ("s", name, symbol_sort)

    @property
    def sort(self) -> str:
        return self.symbol_sort

    def symbols(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def evaluate(self, assignment: Assignment) -> ConcreteValue:
        if self.name not in assignment:
            raise EvaluationError(f"No value for symbol {self.name!r}")
        return assignment[self.name]

    def _render(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class BinaryTerm(Term):
    """A binary operation over two terms."""

    op: str
    left: Term
    right: Term

    @staticmethod
    def _key(op, left, right):
        return ("o", op, id(left), id(right))

    @property
    def sort(self) -> str:
        if self.op in ARITHMETIC_OPS:
            return INT_SORT
        return BOOL_SORT

    def symbols(self) -> FrozenSet[str]:
        return self.left.symbols() | self.right.symbols()

    def evaluate(self, assignment: Assignment) -> ConcreteValue:
        return apply_op(self.op, self.left.evaluate(assignment), self.right.evaluate(assignment))

    def _render(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, eq=False)
class NotTerm(Term):
    """Boolean negation."""

    operand: Term

    @staticmethod
    def _key(operand):
        return ("n", id(operand))

    @property
    def sort(self) -> str:
        return BOOL_SORT

    def symbols(self) -> FrozenSet[str]:
        return self.operand.symbols()

    def evaluate(self, assignment: Assignment) -> ConcreteValue:
        return not bool(self.operand.evaluate(assignment))

    def _render(self) -> str:
        return f"!({self.operand})"


@dataclass(frozen=True, eq=False)
class NegTerm(Term):
    """Integer negation."""

    operand: Term

    @staticmethod
    def _key(operand):
        return ("m", id(operand))

    @property
    def sort(self) -> str:
        return INT_SORT

    def symbols(self) -> FrozenSet[str]:
        return self.operand.symbols()

    def evaluate(self, assignment: Assignment) -> ConcreteValue:
        return -self.operand.evaluate(assignment)

    def _render(self) -> str:
        return f"-({self.operand})"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


def _as_term(value) -> Term:
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        return BoolConst(value)
    if isinstance(value, int):
        return IntConst(value)
    raise TypeError(f"Cannot convert {value!r} to a Term")


# -- symbols and substitution -------------------------------------------------


def term_symbols(term: Term) -> FrozenSet[str]:
    """The symbol names of ``term``, cached on the term instance.

    Caching on the instance (rather than in a process-global table keyed by
    ``term_id``) ties the cache entry's lifetime to the term's own: when a
    run's terms are garbage-collected the cached sets go with them.
    """
    cached = term.__dict__.get("_symbols")
    if cached is None:
        cached = term.symbols()
        object.__setattr__(term, "_symbols", cached)
    return cached


def substitute(term: Term, mapping: Dict[str, Term]) -> Term:
    """Replace every :class:`Symbol` named in ``mapping`` by its image.

    Subterms mentioning no mapped symbol are returned *identically* (not
    rebuilt), so substituting with an empty or irrelevant mapping returns
    ``term`` itself.  Shared subterms are rewritten once per call (the memo
    is keyed by ``term_id``).

    It is the instantiation primitive for summaries recorded over
    placeholder symbols: ``simplify(substitute(t, mapping))`` maps such a
    term onto actual terms in one structural pass, preserving memoized
    ``simplify`` idempotence and cached symbol sets.
    """
    if not mapping:
        return term
    names = frozenset(mapping)
    memo: Dict[int, Term] = {}

    def walk(t: Term) -> Term:
        key = t.term_id
        hit = memo.get(key)
        if hit is not None:
            return hit
        if term_symbols(t).isdisjoint(names):
            result = t
        elif isinstance(t, Symbol):
            result = mapping.get(t.name, t)
        elif isinstance(t, BinaryTerm):
            result = BinaryTerm(t.op, walk(t.left), walk(t.right))
        elif isinstance(t, NotTerm):
            result = NotTerm(walk(t.operand))
        elif isinstance(t, NegTerm):
            result = NegTerm(walk(t.operand))
        else:  # constants have no symbols; unreachable via the disjoint check
            result = t
        memo[key] = result
        return result

    return walk(term)


# -- helpers ------------------------------------------------------------------


def int_symbol(name: str) -> Symbol:
    """Create an integer-sorted symbolic variable."""
    return Symbol(name, INT_SORT)


def bool_symbol(name: str) -> Symbol:
    """Create a boolean-sorted symbolic variable."""
    return Symbol(name, BOOL_SORT)


def negate(term: Term) -> Term:
    """Boolean negation with comparison flipping and De Morgan rewriting.

    Rewriting conjunctions/disjunctions eagerly keeps the result in a form the
    solver's splitter consumes directly and guarantees that repeatedly negating
    a term terminates.
    """
    if isinstance(term, BoolConst):
        return BoolConst(not term.value)
    if isinstance(term, NotTerm):
        return term.operand
    if isinstance(term, BinaryTerm) and term.op in _NEGATED_COMPARISON:
        return BinaryTerm(_NEGATED_COMPARISON[term.op], term.left, term.right)
    if isinstance(term, BinaryTerm) and term.op == "&&":
        return BinaryTerm("||", negate(term.left), negate(term.right))
    if isinstance(term, BinaryTerm) and term.op == "||":
        return BinaryTerm("&&", negate(term.left), negate(term.right))
    return NotTerm(term)


def conjunction(terms) -> Term:
    """Build the conjunction of an iterable of boolean terms."""
    result: Term = TRUE
    first = True
    for term in terms:
        if first:
            result = term
            first = False
        else:
            result = BinaryTerm("&&", result, term)
    return result
