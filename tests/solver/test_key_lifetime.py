"""Cache keys hold their terms: an entry still hits after its inputs die.

Interning is weak, so a term that nothing references is collected, and the
next structurally equal construction is a new instance with a new
``term_id``.  The solver's result cache, the summary cache and the
lookahead's walk memo key on the terms themselves, so each entry keeps its
key's terms alive and a later structurally equal input rebuilds an equal
key.  Each test makes an entry, drops every state, result and term except
the cache, collects, rebuilds the input from scratch and asserts a hit; it
then drops the cache and checks that the key's term dies with it, so the
cache was what kept it alive.
"""

import gc
import weakref

from repro.cfg.builder import build_cfg
from repro.cfg.ir import NodeKind
from repro.core.lookahead import FeasibleReachability
from repro.lang.parser import parse_program
from repro.solver.core import ConstraintSolver
from repro.solver.terms import BinaryTerm, IntConst, int_symbol
from repro.symexec.engine import SymbolicExecutor, symbolic_execute
from repro.symexec.summary_cache import SummaryCache


def _released(probe: weakref.ref) -> bool:
    gc.collect()
    return probe() is None


def test_solver_result_cache_hits_after_its_inputs_die():
    solver = ConstraintSolver()

    def check():
        x = int_symbol("lifetime_solver_x")
        return solver.check([BinaryTerm(">", x, IntConst(7)), BinaryTerm("<", x, IntConst(20))])

    first = check()
    gc.collect()
    second = check()
    assert second is first
    assert solver.statistics.cache_hits == 1

    probe = weakref.ref(int_symbol("lifetime_solver_x"))
    solver.clear_cache()
    assert _released(probe)


SUMMARY_SOURCE = """
global int lifetime_w;

proc main(int a) {
    int y = 0;
    lifetime_w = 1;
    if (a > 0) { y = 1; } else { y = 2; }
}
"""


def test_summary_cache_hits_after_its_inputs_die():
    """``lifetime_w``'s entry value, the symbol ``lifetime_w``, is only
    fingerprinted (the region overwrites it before anything reads it).  Once
    a hit has derived the entry's root-relative records, nothing but the
    key refers to that symbol."""
    cache = SummaryCache()

    def run():
        statistics = symbolic_execute(
            parse_program(SUMMARY_SOURCE), procedure_name="main", summary_cache=cache
        ).statistics
        gc.collect()
        return statistics.summary_cache_hits, statistics.summary_cache_misses

    recorded_hits, recorded_misses = run()
    assert recorded_hits == 0 and recorded_misses > 0
    # The first hit replays the whole run from the entry root and derives
    # its records; the second finds the entry after the symbol lost every
    # other reference.
    assert run() == (1, 0)
    assert run() == (1, 0)

    probe = weakref.ref(int_symbol("lifetime_w"))
    del cache
    assert _released(probe)


LOOKAHEAD_SOURCE = """
global int lifetime_g = 424242;

proc probe(int a) {
    int x = 0;
    if (lifetime_g > 3) { x = 1; } else { x = 2; }
}
"""


def test_lookahead_walk_memo_hits_after_its_inputs_die():
    """The decision variable ``lifetime_g`` enters the walk as the constant
    ``424242``; the branch on it is decided without the solver, so only the
    memo key refers to that constant."""
    program = parse_program(LOOKAHEAD_SOURCE)
    cfg = build_cfg(program, "probe")
    lookahead = FeasibleReachability(cfg, solver=ConstraintSolver())
    writes = {node.node_id for node in cfg.nodes if node.kind is NodeKind.ASSIGN}

    def query():
        state = SymbolicExecutor(program, procedure_name="probe").initial_state()
        return lookahead.reachable_targets(state, writes, assume_feasible=True)

    first = query()
    assert first and first != writes
    gc.collect()
    assert query() == first
    assert lookahead.statistics.walk_memo_hits == 1

    probe = weakref.ref(IntConst(424242))
    del lookahead
    assert _released(probe)
