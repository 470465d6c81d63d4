"""One canonical instance per term structure, however the term is built.

Random term *shapes* (the codec's tagged lists, so no route can reuse
another route's objects) are built twice by each of four routes: class
calls, operator overloads, ``substitute`` and a codec round trip.  Every
construction must return the same object, equality must be identity, and
``hash`` must be the term id.
"""

from hypothesis import given, settings, strategies as st

from repro.parallel.serialize import decode_term, encode_term
from repro.solver.terms import (
    BinaryTerm,
    BoolConst,
    IntConst,
    NegTerm,
    NotTerm,
    Symbol,
    substitute,
    term_symbols,
)

#: Symbol names and their sorts (each name has one sort).
_SORTS = {"x": "int", "y": "int", "p": "bool", "q": "bool"}

_LEAVES = st.one_of(
    st.integers(min_value=-3, max_value=3).map(lambda value: ["i", value]),
    st.booleans().map(lambda value: ["b", value]),
    st.sampled_from(sorted(_SORTS)).map(lambda name: ["y", name, _SORTS[name]]),
)


def _extend(children):
    ops = st.sampled_from(["+", "-", "*", "/", "==", "<", "&&", "||"])
    return st.one_of(
        st.tuples(st.just("o"), ops, children, children).map(list),
        children.map(lambda child: ["!", child]),
        children.map(lambda child: ["~", child]),
    )


SHAPES = st.recursive(_LEAVES, _extend, max_leaves=10)


def _build(shape, binary):
    """Build ``shape`` bottom-up; ``binary(op, left, right)`` makes the operator nodes."""
    tag = shape[0]
    if tag == "i":
        return IntConst(shape[1])
    if tag == "b":
        return BoolConst(shape[1])
    if tag == "y":
        return Symbol(shape[1], shape[2])
    if tag == "o":
        return binary(shape[1], _build(shape[2], binary), _build(shape[3], binary))
    if tag == "!":
        return NotTerm(_build(shape[1], binary))
    return NegTerm(_build(shape[1], binary))


def by_class_calls(shape):
    return _build(shape, BinaryTerm)


def _overloaded(op, left, right):
    if op not in ("+", "-", "*"):
        return BinaryTerm(op, left, right)
    # An integer-constant right operand goes in as a plain ``int``.
    if isinstance(right, IntConst):
        right = right.value
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    return left * right


def by_overloads(shape):
    return _build(shape, _overloaded)


def by_substitution(shape):
    """Rebuild every symbol-bearing node by mapping each symbol to itself."""
    term = by_class_calls(shape)
    return substitute(term, {name: Symbol(name, _SORTS[name]) for name in term_symbols(term)})


def _subterms(term):
    yield term
    for child in ("left", "right", "operand"):
        if hasattr(term, child):
            yield from _subterms(getattr(term, child))


ROUTES = (
    by_class_calls,
    by_overloads,
    by_substitution,
    lambda shape: substitute(by_class_calls(shape), {}),
    lambda shape: decode_term(encode_term(by_class_calls(shape))),
    decode_term,
)


@given(SHAPES)
@settings(max_examples=200, deadline=None)
def test_every_route_returns_the_same_object(shape):
    canonical = by_class_calls(shape)
    for route in ROUTES:
        assert route(shape) is canonical
        assert route(shape) is canonical
    assert encode_term(canonical) == shape
    for term in _subterms(canonical):
        assert hash(term) == term.term_id


@given(SHAPES, SHAPES)
@settings(max_examples=200, deadline=None)
def test_equality_is_identity_and_follows_structure(left_shape, right_shape):
    left = by_class_calls(left_shape)
    right = by_overloads(right_shape)
    assert (left == right) is (left is right)
    assert (left is right) is (left_shape == right_shape)
    assert (left != right) is (left is not right)


def test_keyword_and_default_arguments_share_the_instance():
    assert Symbol(name="x") is Symbol("x", "int")
    assert Symbol("x", symbol_sort="bool") is Symbol("x", "bool")
    assert Symbol("x") is not Symbol("x", "bool")
