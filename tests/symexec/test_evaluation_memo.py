"""The engine's evaluation memo: keyed on every term a node reads, owned by one run.

``SymbolicExecutor._evaluate`` memoises each ``ASSIGN`` value, ``BRANCH``
condition and ``CALL`` argument tuple for the run, keyed on the node and the
terms of its ``used_variables()``.  A key that left out a read variable
would return another path's value; a table shared between runs of
different CFGs would return another program's value, since node ids repeat
across CFGs.  ``tests/integration/test_cold_path_differential.py`` checks
every evaluation of the five histories against the tree walk; these tests
pin the two failure modes on programs small enough to read.
"""

import gc
import weakref

from repro.cfg.builder import build_cfg
from repro.cfg.ir import NodeKind
from repro.lang.parser import parse_program
from repro.solver.terms import BinaryTerm, IntConst, int_symbol
from repro.symexec.engine import SymbolicExecutor, symbolic_execute

A, B = int_symbol("a"), int_symbol("b")

#: ``y`` reads (a, b) and ``z`` reads (b, a): whichever read a key dropped,
#: one of them sees the same key under two values of ``b``.
TWO_READS = """
proc main(int a, int b) {
    int y = 0;
    int z = 0;
    if (b > 0) { b = 1; } else { b = 2; }
    y = a + b;
    z = b - a;
}
"""


def _finals(result, name):
    return [dict(record.final_environment)[name] for record in result.summary.records]


def test_every_read_variable_keys_the_memo():
    result = symbolic_execute(parse_program(TWO_READS), procedure_name="main")
    assert _finals(result, "y") == [A + IntConst(1), A + IntConst(2)]
    assert _finals(result, "z") == [BinaryTerm("-", IntConst(1), A), BinaryTerm("-", IntConst(2), A)]


def _program(constant):
    return parse_program(f"""
proc main(int a) {{
    int y = a + {constant};
    int z = 0;
    if (y > a) {{ z = 1; }} else {{ z = 2; }}
}}
""")


def test_runs_of_different_cfgs_share_no_values():
    """The same node ids read the same symbol in both programs."""
    first, second = _program(1), _program(2)
    assert [n.node_id for n in build_cfg(first, "main").nodes] == [
        n.node_id for n in build_cfg(second, "main").nodes
    ]
    for program, constant in ((first, 1), (second, 2), (first, 1)):
        result = symbolic_execute(program, procedure_name="main")
        assert set(_finals(result, "y")) == {A + IntConst(constant)}


def test_a_hit_returns_the_term_the_closure_builds():
    program = parse_program(TWO_READS)
    executor = SymbolicExecutor(program, procedure_name="main")
    executor.run()
    state = executor.initial_state()
    for node in executor.cfg.nodes:
        if node.kind is NodeKind.ASSIGN:
            expected = node.lowered_expr(state.env_map())
            assert executor._evaluate(state, node) is expected
            assert executor._evaluate(state, node) is expected


LIFETIME_SOURCE = """
proc main(int a) {
    int t = a * 919191;
    t = 0;
}
"""


def test_a_term_held_only_by_the_memo_dies_with_its_executor():
    """``a * 919191`` is overwritten before the path ends, so no record, state
    or closure refers to it after the run: only the run's memo does."""
    program = parse_program(LIFETIME_SOURCE)
    executor = SymbolicExecutor(program, procedure_name="main")
    result = executor.run()
    assert _finals(result, "t") == [IntConst(0)]
    (write,) = [n for n in executor.cfg.nodes if n.kind is NodeKind.ASSIGN and n.line == 3]
    probe = weakref.ref(write.lowered_expr({"a": A}))
    gc.collect()
    assert probe() is not None

    del executor
    gc.collect()
    assert probe() is None
