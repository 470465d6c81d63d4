"""Property tests for the interning-preserving substitution primitive.

``substitute`` instantiates terms recorded over placeholder symbols, so
its algebra carries the exactness argument of any replay built on it:

* results are canonical (a repeat substitution returns the same object);
* it commutes with memoized simplification
  (``simplify(substitute(simplify(t), s)) == simplify(substitute(t, s))``),
  which is why a summary may store *simplified* constraints;
* it commutes with ``negate`` the same way, which covers the FALSE-edge
  constraints a summary records;
* ``term_symbols`` stays correct on substituted terms (the ``_symbols``
  instance cache must never go stale), which a post-substitution
  prefix-disjointness check depends on.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.solver.simplify import simplify
from repro.solver.terms import (
    BinaryTerm,
    IntConst,
    NegTerm,
    NotTerm,
    Symbol,
    negate,
    substitute,
    term_symbols,
)

INT_NAMES = ("x", "y", "z", "w")
IMAGE_NAMES = ("x", "y", "u", "v")
ARITH_OPS = ("+", "-", "*")
COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")
LOGICAL_OPS = ("&&", "||")


@st.composite
def int_terms(draw, names=INT_NAMES, depth=2):
    choices = ["symbol", "const"]
    if depth > 0:
        choices += ["binary", "neg"]
    kind = draw(st.sampled_from(choices))
    if kind == "symbol":
        return Symbol(draw(st.sampled_from(names)))
    if kind == "const":
        return IntConst(draw(st.integers(min_value=-5, max_value=5)))
    if kind == "neg":
        return NegTerm(draw(int_terms(names=names, depth=depth - 1)))
    return BinaryTerm(
        draw(st.sampled_from(ARITH_OPS)),
        draw(int_terms(names=names, depth=depth - 1)),
        draw(int_terms(names=names, depth=depth - 1)),
    )


@st.composite
def bool_terms(draw, names=INT_NAMES, depth=2):
    kind = draw(st.sampled_from(["cmp", "logic", "not"] if depth > 0 else ["cmp"]))
    if kind == "cmp":
        return BinaryTerm(
            draw(st.sampled_from(COMPARISON_OPS)),
            draw(int_terms(names=names, depth=1)),
            draw(int_terms(names=names, depth=1)),
        )
    if kind == "not":
        return NotTerm(draw(bool_terms(names=names, depth=depth - 1)))
    return BinaryTerm(
        draw(st.sampled_from(LOGICAL_OPS)),
        draw(bool_terms(names=names, depth=depth - 1)),
        draw(bool_terms(names=names, depth=depth - 1)),
    )


@st.composite
def substitutions(draw):
    """A mapping from some of the term names to small image terms."""
    mapped = draw(st.lists(st.sampled_from(INT_NAMES), unique=True, max_size=4))
    return {name: draw(int_terms(names=IMAGE_NAMES, depth=1)) for name in mapped}


any_terms = st.one_of(int_terms(), bool_terms())


class TestInterningIdentity:
    @given(any_terms)
    @settings(max_examples=150, deadline=None)
    def test_empty_mapping_is_interned_identity(self, term):
        assert substitute(term, {}) is term

    @given(any_terms, substitutions())
    @settings(max_examples=150, deadline=None)
    def test_result_is_interned(self, term, sigma):
        result = substitute(term, sigma)
        # Rebuilding the top node from its fields finds the same instance.
        fields = [getattr(result, f.name) for f in dataclasses.fields(result)]
        assert type(result)(*fields) is result

    @given(any_terms, substitutions())
    @settings(max_examples=150, deadline=None)
    def test_repeat_substitution_is_identical(self, term, sigma):
        # Interning makes equal results the *same object*, so instantiating
        # one summary at many call sites with equal arguments dedupes.
        assert substitute(term, sigma) is substitute(term, sigma)

    @given(any_terms, substitutions())
    @settings(max_examples=100, deadline=None)
    def test_untouched_when_domain_disjoint(self, term, sigma):
        relevant = {n: v for n, v in sigma.items() if n in term_symbols(term)}
        if not relevant:
            assert substitute(term, sigma) is term


class TestSimplifyCommutation:
    @given(any_terms, substitutions())
    @settings(max_examples=200, deadline=None)
    def test_substitute_commutes_with_simplify(self, term, sigma):
        # The fixpoint the exactness argument rests on: summaries store
        # simplified callee terms, call sites substitute into them, and the
        # result simplifies to exactly what inline execution computes.
        direct = simplify(substitute(term, sigma))
        staged = simplify(substitute(simplify(term), sigma))
        assert direct is staged

    @given(any_terms, substitutions())
    @settings(max_examples=100, deadline=None)
    def test_simplify_idempotent_after_substitution(self, term, sigma):
        once = simplify(substitute(term, sigma))
        assert simplify(once) is once


class TestNegateCommutation:
    @given(bool_terms(), substitutions())
    @settings(max_examples=200, deadline=None)
    def test_substitute_commutes_with_negate(self, term, sigma):
        assert substitute(negate(term), sigma) is negate(substitute(term, sigma))

    @given(bool_terms(), substitutions())
    @settings(max_examples=200, deadline=None)
    def test_negated_false_edge_constraints_instantiate_exactly(self, term, sigma):
        # A callee's FALSE-edge constraint is stored as simplify(negate(c))
        # with c already a simplified evaluator output; at the call site the
        # native run computes simplify(negate(simplify(substitute(c, s))))
        # with s's images simplified env terms.  Both orders must agree --
        # over *simplified* inputs, which is all the engine ever feeds in
        # (the unsimplified generalisation is false: simplify(!!(a == b))
        # and negate(!!(a == b)) normalise to different shapes).
        condition = simplify(term)
        sigma = {name: simplify(image) for name, image in sigma.items()}
        stored = simplify(negate(condition))
        assert simplify(substitute(stored, sigma)) is simplify(
            negate(simplify(substitute(condition, sigma)))
        )


class TestSymbolTracking:
    @given(any_terms, substitutions())
    @settings(max_examples=150, deadline=None)
    def test_cached_symbols_match_fresh_computation(self, term, sigma):
        result = substitute(term, sigma)
        assert term_symbols(result) == result.symbols()

    @given(any_terms, substitutions())
    @settings(max_examples=150, deadline=None)
    def test_symbols_are_leafwise_image_union(self, term, sigma):
        # Simultaneous (not iterated) substitution: an image's symbols pass
        # through untouched even when they are themselves in the domain.
        expected = set()
        for name in term_symbols(term):
            if name in sigma:
                expected |= term_symbols(sigma[name])
            else:
                expected.add(name)
        assert term_symbols(substitute(term, sigma)) == frozenset(expected)
