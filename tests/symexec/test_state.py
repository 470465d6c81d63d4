"""Tests for symbolic states and path conditions."""

import copy

import pytest
from hypothesis import given, strategies as st

from repro.cfg.builder import build_cfg
from repro.lang.parser import parse_program
from repro.solver.terms import (
    BinaryTerm,
    BoolConst,
    IntConst,
    NegTerm,
    NotTerm,
    Symbol,
    int_symbol,
)
from repro.symexec.state import CallFrame, PathCondition, SymbolicState


X = int_symbol("x")


def small_cfg():
    return build_cfg(parse_program("proc f(int x) { if (x > 0) { x = 1; } else { x = 2; } }"))


class TestPathCondition:
    def test_empty_is_true(self):
        assert str(PathCondition()) == "true"
        assert len(PathCondition()) == 0

    def test_extend_is_persistent(self):
        base = PathCondition()
        extended = base.extend(BinaryTerm(">", X, IntConst(0)))
        assert len(base) == 0
        assert len(extended) == 1

    def test_extend_simplifies(self):
        extended = PathCondition().extend(BinaryTerm("<", IntConst(1), IntConst(2)))
        assert str(extended) == "true"

    def test_holds_under_assignment(self):
        condition = PathCondition().extend(BinaryTerm(">", X, IntConst(0)))
        assert condition.holds({"x": 1})
        assert not condition.holds({"x": 0})

    def test_holds_every_constraint(self):
        condition = (
            PathCondition()
            .extend(BinaryTerm(">", X, IntConst(0)))
            .extend(BinaryTerm("<", X, IntConst(5)))
        )
        assert condition.holds({"x": 3})
        assert not condition.holds({"x": 7})

    def test_str_rendering(self):
        condition = PathCondition().extend(BinaryTerm(">", X, IntConst(0)))
        assert str(condition) == "(x > 0)"


#: Term shapes as nested lists, rendered and built independently.
_LEAVES = st.one_of(
    st.integers(min_value=-3, max_value=3).map(lambda value: ["i", value]),
    st.booleans().map(lambda value: ["b", value]),
    st.sampled_from(["x", "y"]).map(lambda name: ["y", name]),
)
_SHAPES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.tuples(
            st.just("o"), st.sampled_from(["+", "*", "==", "<", "&&"]), children, children
        ).map(list),
        children.map(lambda child: ["!", child]),
        children.map(lambda child: ["~", child]),
    ),
    max_leaves=8,
)


def _build(shape):
    tag = shape[0]
    if tag == "i":
        return IntConst(shape[1])
    if tag == "b":
        return BoolConst(shape[1])
    if tag == "y":
        return Symbol(shape[1])
    if tag == "o":
        return BinaryTerm(shape[1], _build(shape[2]), _build(shape[3]))
    if tag == "!":
        return NotTerm(_build(shape[1]))
    return NegTerm(_build(shape[1]))


def _render(shape):
    """The structural rendering of ``shape``, computed from scratch."""
    tag = shape[0]
    if tag == "i":
        return str(shape[1])
    if tag == "b":
        return "true" if shape[1] else "false"
    if tag == "y":
        return shape[1]
    if tag == "o":
        return f"({_render(shape[2])} {shape[1]} {_render(shape[3])})"
    if tag == "!":
        return f"!({_render(shape[1])})"
    return f"-({_render(shape[1])})"


class TestMemoisedRendering:
    """A term renders once and caches its text on the canonical instance;
    the cached text is the structural rendering, however often the term
    and its subterms were rendered before."""

    @given(_SHAPES, _SHAPES)
    def test_memoised_str_equals_structural_rendering(self, first, second):
        terms = (_build(first), _build(second))
        expected = (_render(first), _render(second))
        for _ in range(2):
            assert tuple(map(str, terms)) == expected
            assert str(PathCondition(terms)) == " && ".join(expected)

    def test_text_is_cached_on_the_instance(self):
        term = BinaryTerm("<", NegTerm(X), IntConst(4))
        assert str(term) is str(term)
        assert str(BinaryTerm("<", NegTerm(X), IntConst(4))) is str(term)


class TestSymbolicState:
    def test_make_and_lookup(self):
        cfg = small_cfg()
        state = SymbolicState.make(cfg.begin, {"x": X})
        assert state.env_map()["x"] == X
        assert state.depth == 0

    def test_with_assignment_does_not_mutate(self):
        cfg = small_cfg()
        state = SymbolicState.make(cfg.begin, {"x": X})
        new_state = state.with_assignment(cfg.node(0), "x", IntConst(1))
        assert state.env_map()["x"] == X
        assert new_state.env_map()["x"] == IntConst(1)
        assert new_state.trace[-1] == 0

    def test_with_constraint_increments_depth(self):
        cfg = small_cfg()
        state = SymbolicState.make(cfg.begin, {"x": X})
        new_state = state.with_constraint(cfg.node(0), BinaryTerm(">", X, IntConst(0)))
        assert new_state.depth == state.depth + 1
        assert len(new_state.path_condition) == 1

    def test_with_node_extends_trace_only(self):
        cfg = small_cfg()
        state = SymbolicState.make(cfg.begin, {"x": X}, trace=(cfg.begin.node_id,))
        moved = state.with_node(cfg.node(0))
        assert moved.environment == state.environment
        assert moved.trace == (cfg.begin.node_id, 0)

    def test_describe_contains_location_and_pc(self):
        cfg = small_cfg()
        state = SymbolicState.make(cfg.begin, {"x": X})
        text = state.describe()
        assert "Loc: nbegin" in text
        assert "PC: true" in text


class TestValues:
    """States and path conditions are immutable slotted values."""

    def test_equal_path_conditions_are_equal_and_hash_alike(self):
        first = PathCondition().extend(BinaryTerm(">", X, IntConst(0)))
        second = PathCondition((BinaryTerm(">", X, IntConst(0)),))
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert first != PathCondition()
        assert first != first.constraints

    def test_equal_states_are_equal_and_hash_alike(self):
        cfg = small_cfg()
        first = SymbolicState.make(cfg.begin, {"x": X}, trace=(cfg.begin.node_id,))
        second = SymbolicState(cfg.begin, (("x", X),), PathCondition(), (cfg.begin.node_id,))
        assert first == second and hash(first) == hash(second)
        # The cached environment view is not a field.
        first.env_map()
        assert first == second and hash(first) == hash(second)

    def test_every_field_takes_part_in_equality(self):
        cfg = small_cfg()
        state = SymbolicState.make(cfg.begin, {"x": X}, trace=(cfg.begin.node_id,))
        others = (
            state.with_node(cfg.node(0)),
            SymbolicState(cfg.begin, (("x", IntConst(1)),), trace=state.trace),
            SymbolicState(
                cfg.begin,
                state.environment,
                PathCondition().extend(BinaryTerm(">", X, IntConst(0))),
                state.trace,
            ),
            SymbolicState(cfg.begin, state.environment, trace=()),
            SymbolicState(cfg.begin, state.environment, trace=state.trace,
                          frames=(CallFrame("g", ()),)),
        )
        for other in others:
            assert other != state
        assert state != state.environment

    def test_states_and_path_conditions_are_immutable(self):
        cfg = small_cfg()
        state = SymbolicState.make(cfg.begin, {"x": X})
        for name in ("node", "environment", "path_condition", "trace", "frames", "depth"):
            with pytest.raises(AttributeError):
                setattr(state, name, None)
        with pytest.raises(AttributeError):
            del state.trace
        with pytest.raises(AttributeError):
            state.unknown = 1
        condition = state.path_condition
        with pytest.raises(AttributeError):
            condition.constraints = ()
        assert not hasattr(state, "__dict__") and not hasattr(condition, "__dict__")

    def test_environment_view_is_read_only_and_built_once(self):
        cfg = small_cfg()
        state = SymbolicState.make(cfg.begin, {"x": X})
        view = state.env_map()
        assert view is state.env_map()
        assert dict(view) == {"x": X}
        with pytest.raises(TypeError):
            view["x"] = IntConst(1)

    def test_copies_are_equal(self):
        cfg = small_cfg()
        state = SymbolicState.make(cfg.begin, {"x": X}).with_constraint(
            cfg.node(0), BinaryTerm(">", X, IntConst(0))
        )
        assert copy.copy(state) == state
        assert copy.copy(state.path_condition) == state.path_condition
