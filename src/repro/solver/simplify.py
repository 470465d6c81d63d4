"""Term simplification: constant folding and algebraic identities.

Keeping symbolic values small is important for two reasons: the solver
linearises fewer operators, and printed path conditions stay readable (the
paper prints conditions such as ``PedalPos + 1 == 2``).

Simplification is *memoized*: :func:`simplify` looks the result up in a
table keyed by the argument's ``term_id``, and guarantees the idempotence
identity ``simplify(simplify(t)) is simplify(t)``.  The symbolic executor simplifies
every branch constraint and every assigned value, so the same subterms come
back constantly; the memo turns those repeat visits into dictionary hits.
"""

from __future__ import annotations

import weakref
from typing import Dict

from repro.solver.terms import (
    ARITHMETIC_OPS,
    COMPARISON_OPS,
    FALSE,
    LOGICAL_OPS,
    TRUE,
    BinaryTerm,
    BoolConst,
    IntConst,
    NegTerm,
    NotTerm,
    Term,
    apply_op,
    evicting,
)

#: ``term_id`` of a term -> its simplified form.  Values are held weakly,
#: mirroring the weak intern table (and stored the same way, as
#: ``KeyedRef`` values of a plain dict): a memo entry must not be the thing
#: keeping a dead run's terms alive.  Term ids are never reused, so
#: a key whose argument term has died can never alias a new term -- its
#: entry just lingers until its value dies too, then evaporates.
_MEMO: "Dict[int, weakref.KeyedRef]" = {}
_evict_simplified = evicting(_MEMO)


def simplify_cache_info() -> Dict[str, int]:
    """Size of the simplification memo (reported by solver statistics)."""
    return {"entries": len(_MEMO)}


def simplify(term: Term) -> Term:
    """Return an equivalent, usually smaller, term (memoized)."""
    term_id = term.term_id
    ref = _MEMO.get(term_id)
    if ref is not None:
        cached = ref()
        if cached is not None:
            return cached
    result = _simplify(term)
    _MEMO[term_id] = weakref.KeyedRef(result, _evict_simplified, term_id)
    # simplify is idempotent: fixing the result's entry now makes
    # ``simplify(simplify(t))`` a guaranteed table hit.
    if result.term_id not in _MEMO:
        _MEMO[result.term_id] = weakref.KeyedRef(result, _evict_simplified, result.term_id)
    return result


def _simplify(term: Term) -> Term:
    if isinstance(term, BinaryTerm):
        left = simplify(term.left)
        right = simplify(term.right)
        return _simplify_binary(term.op, left, right)
    if isinstance(term, NotTerm):
        operand = simplify(term.operand)
        if isinstance(operand, BoolConst):
            return BoolConst(not operand.value)
        if isinstance(operand, NotTerm):
            return operand.operand
        return NotTerm(operand)
    if isinstance(term, NegTerm):
        operand = simplify(term.operand)
        if isinstance(operand, IntConst):
            return IntConst(-operand.value)
        if isinstance(operand, NegTerm):
            return operand.operand
        return NegTerm(operand)
    return term


def _simplify_binary(op: str, left: Term, right: Term) -> Term:
    folded = _fold_constants(op, left, right)
    if folded is not None:
        return folded
    if op in ARITHMETIC_OPS:
        return _simplify_arithmetic(op, left, right)
    if op in LOGICAL_OPS:
        return _simplify_logical(op, left, right)
    if op in COMPARISON_OPS:
        return _simplify_comparison(op, left, right)
    return BinaryTerm(op, left, right)


def _fold_constants(op: str, left: Term, right: Term) -> Term:
    both_int = isinstance(left, IntConst) and isinstance(right, IntConst)
    both_bool = isinstance(left, BoolConst) and isinstance(right, BoolConst)
    if not (both_int or both_bool):
        return None
    if op in ("/", "%") and isinstance(right, IntConst) and right.value == 0:
        return None  # leave division by zero to the evaluator / error paths
    value = apply_op(op, left.value, right.value)
    if isinstance(value, bool):
        return BoolConst(value)
    return IntConst(value)


def _simplify_arithmetic(op: str, left: Term, right: Term) -> Term:
    if op == "+":
        if isinstance(left, IntConst) and left.value == 0:
            return right
        if isinstance(right, IntConst) and right.value == 0:
            return left
    elif op == "-":
        if isinstance(right, IntConst) and right.value == 0:
            return left
        if left is right:
            return IntConst(0)
    elif op == "*":
        for constant, other in ((left, right), (right, left)):
            if isinstance(constant, IntConst):
                if constant.value == 0:
                    return IntConst(0)
                if constant.value == 1:
                    return other
    elif op == "/":
        if isinstance(right, IntConst) and right.value == 1:
            return left
    return BinaryTerm(op, left, right)


def _simplify_logical(op: str, left: Term, right: Term) -> Term:
    if op == "&&":
        if left is FALSE or right is FALSE:
            return FALSE
        if left is TRUE:
            return right
        if right is TRUE:
            return left
    else:  # "||"
        if left is TRUE or right is TRUE:
            return TRUE
        if left is FALSE:
            return right
        if right is FALSE:
            return left
    if left is right:
        return left
    return BinaryTerm(op, left, right)


def _simplify_comparison(op: str, left: Term, right: Term) -> Term:
    if left is right:
        if op in ("==", "<=", ">="):
            return TRUE
        if op in ("!=", "<", ">"):
            return FALSE
    return BinaryTerm(op, left, right)
