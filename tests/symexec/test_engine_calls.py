"""Interprocedural symbolic execution: frames, scoping, summaries."""

import pytest

from repro.lang.parser import parse_program
from repro.solver.core import ConstraintSolver
from repro.symexec.engine import SymbolicExecutor, symbolic_execute
from repro.symexec.summary_cache import SummaryCache


def _distinct(summary):
    return tuple(sorted(str(pc) for pc in summary.distinct_path_conditions()))


def _env(record):
    return dict(record.final_environment)


class TestCallExecution:
    def test_return_value_binds_target(self):
        program = parse_program(
            """
            proc double(int v) { return v + v; }
            proc main(int x) { int r = 0; r = double(x); }
            """
        )
        result = symbolic_execute(program, procedure_name="main")
        assert len(result.summary) == 1
        assert str(_env(result.summary.records[0])["r"]) == "(x + x)"

    def test_caller_locals_restored_after_shadowing(self):
        """A callee formal named like a caller local must not clobber it."""
        program = parse_program(
            """
            proc inner(int v) { int t = 99; return v + t; }
            proc main(int x) {
                int v = 7;
                int t = 3;
                int r = 0;
                r = inner(x);
            }
            """
        )
        result = symbolic_execute(program, procedure_name="main")
        env = _env(result.summary.records[0])
        assert str(env["v"]) == "7"
        assert str(env["t"]) == "3"
        assert str(env["r"]) == "(x + 99)"

    def test_callee_cannot_see_caller_locals(self):
        """Reading an undeclared name inside the callee fails loudly."""
        program = parse_program(
            """
            proc inner(int v) { return v + hidden; }
            proc main(int x) { int hidden = 1; int r = 0; r = inner(x); }
            """
        )
        from repro.symexec.evaluator import UndefinedVariableError

        with pytest.raises(UndefinedVariableError):
            symbolic_execute(program, procedure_name="main")

    def test_global_writes_persist_past_return(self):
        program = parse_program(
            """
            global int g = 0;
            proc bump(int v) { g = g + v; return g; }
            proc main(int x) { bump(x); bump(x); }
            """
        )
        result = symbolic_execute(program, procedure_name="main")
        assert str(_env(result.summary.records[0])["g"]) == "(x + x)"

    def test_nested_calls(self):
        program = parse_program(
            """
            proc leaf(int a) { return a + 1; }
            proc mid(int b) { int t = 0; t = leaf(b); return t * 2; }
            proc main(int x) { int r = 0; r = mid(x); }
            """
        )
        result = symbolic_execute(program, procedure_name="main")
        assert str(_env(result.summary.records[0])["r"]) == "((x + 1) * 2)"

    def test_branching_callee_splits_paths(self):
        program = parse_program(
            """
            proc sign(int v) {
                if (v > 0) { return 1; }
                return 0;
            }
            proc main(int x, int y) {
                int a = 0;
                int b = 0;
                a = sign(x);
                b = sign(y);
            }
            """
        )
        result = symbolic_execute(program, procedure_name="main")
        assert len(result.summary) == 4

    def test_error_inside_callee_reported(self):
        program = parse_program(
            """
            proc check(int v) { assert v > 0; return v; }
            proc main(int x) { int r = 0; r = check(x); }
            """
        )
        result = symbolic_execute(program, procedure_name="main")
        errors = result.summary.error_records
        assert len(errors) == 1
        assert str(errors[0].path_condition) == "(x <= 0)"

    def test_missing_return_value_raises(self):
        """Unvalidated program falling off the callee end with a target."""
        program = parse_program(
            """
            proc f(int v) { skip; }
            proc main(int x) { int r = 0; r = f(x); }
            """
        )
        with pytest.raises(RuntimeError, match="returned no value"):
            symbolic_execute(program, procedure_name="main")


CALLS_SOURCE = """
global int g = 0;

proc guard(int v, int lo) {
    if (v < lo) { g = g + 1; return lo; }
    return v;
}

proc main(int x, int y) {
    int a = 0;
    a = guard(x, 10);
    if (a > 5) { g = g * 2; }
    a = guard(a + y, 0);
}
"""


class TestCallSummaries:
    def test_callee_summaries_replay_across_versions(self):
        """A caller-only edit replays the untouched callee's summaries."""
        base = parse_program(CALLS_SOURCE)
        modified = parse_program(CALLS_SOURCE.replace("a > 5", "a > 6"))
        cache = SummaryCache()
        solver = ConstraintSolver()
        symbolic_execute(base, "main", solver=solver, summary_cache=cache)
        warm = symbolic_execute(modified, "main", solver=solver, summary_cache=cache)
        cold = symbolic_execute(modified, "main", solver=ConstraintSolver())
        assert _distinct(warm.summary) == _distinct(cold.summary)
        assert warm.statistics.summary_cache_hits > 0
        assert warm.statistics.replayed_paths + warm.statistics.replayed_segments > 0

    def test_callee_edit_invalidates_reaching_summaries(self):
        """An edited callee must not replay its stale summaries."""
        base = parse_program(CALLS_SOURCE)
        modified = parse_program(CALLS_SOURCE.replace("g = g + 1;", "g = g + 2;"))
        cache = SummaryCache()
        solver = ConstraintSolver()
        symbolic_execute(base, "main", solver=solver, summary_cache=cache)
        warm = symbolic_execute(modified, "main", solver=solver, summary_cache=cache)
        cold = symbolic_execute(modified, "main", solver=ConstraintSolver())
        assert _distinct(warm.summary) == _distinct(cold.summary)
        final_base = _env(cold.summary.records[0])
        final_warm = _env(warm.summary.records[0])
        assert str(final_base["g"]) == str(final_warm["g"])

    def test_interior_callee_replay_deletes_popped_scope(self):
        """Replay from a root inside a callee must not leak callee bindings.

        The upstream-only edit (a global write nothing downstream reads)
        invalidates the whole-run region but leaves the callee-interior
        branch regions intact, so the second run replays from roots whose
        recorded paths popped the callee scope: the rebased final
        environments must match a cold run exactly -- including the
        *absence* of the callee's formals and ``__return__``.
        """
        source = """
            global int g = 0;
            proc pick(int v) {
                if (v > 0) { return v; }
                return 0 - v;
            }
            proc main(int x) {
                g = 1;
                int r = 0;
                r = pick(x);
            }
        """
        base = parse_program(source)
        modified = parse_program(source.replace("g = 1;", "g = 2;"))
        cache = SummaryCache()
        solver = ConstraintSolver()
        symbolic_execute(base, "main", solver=solver, summary_cache=cache)
        warm = symbolic_execute(modified, "main", solver=solver, summary_cache=cache)
        cold = symbolic_execute(modified, "main", solver=ConstraintSolver())
        assert warm.statistics.replayed_paths > 0
        warm_envs = {str(r.path_condition): _env(r) for r in warm.summary.records}
        cold_envs = {str(r.path_condition): _env(r) for r in cold.summary.records}
        assert warm_envs.keys() == cold_envs.keys()
        for pc, cold_env in cold_envs.items():
            warm_env = warm_envs[pc]
            assert set(warm_env) == set(cold_env), (
                f"replayed environment for {pc} has stale/missing names: "
                f"{sorted(set(warm_env) ^ set(cold_env))}"
            )
            assert {n: str(t) for n, t in warm_env.items()} == {
                n: str(t) for n, t in cold_env.items()
            }

    def test_frames_join_the_cache_fingerprint(self):
        """Roots inside a callee key on the frame stack, not just the env."""
        program = parse_program(CALLS_SOURCE)
        executor = SymbolicExecutor(
            program, procedure_name="main", summary_cache=SummaryCache()
        )
        from repro.cfg.ir import NodeKind
        from repro.solver.terms import IntConst
        from repro.symexec.state import CallFrame

        branch = next(
            n for n in executor.cfg.nodes if n.kind is NodeKind.BRANCH and n.call_depth == 1
        )
        signature = executor.cfg.regions.signature(branch)
        env = {"v": IntConst(1), "lo": IntConst(2), "g": IntConst(0)}
        frame_a = CallFrame(callee="guard", saved=(("a", IntConst(3)),))
        frame_b = CallFrame(callee="guard", saved=(("a", IntConst(4)),))
        one = executor._fingerprint(env, signature, (), (frame_a,))
        two = executor._fingerprint(env, signature, (), (frame_b,))
        assert one is not None and two is not None
        assert one != two


#: A loop inside the callee.
LOOPY_CALLEE_SOURCE = """
global int total = 0;
proc drain(int n) {
    int i = 0;
    while (i < n) {
        total = total + 1;
        i = i + 1;
    }
    return i;
}
proc main(int a, int b) {
    int r = 0;
    r = drain(a);
    if (b > 0) { total = total + r; }
}
"""

#: A loop-free callee called from inside a loop body.
CALL_IN_LOOP_SOURCE = """
global int acc = 0;
proc step(int v, int cap) {
    if (v > cap) {
        acc = acc + cap;
        return cap;
    }
    acc = acc + v;
    return v;
}
proc main(int x, int y) {
    int i = 0;
    int r = 0;
    while (i < 2) {
        r = step(x, y);
        i = i + 1;
    }
    if (r > 0) { acc = acc + 1; }
}
"""

#: One callee called from two sites.
TWO_SITES_SOURCE = """
global int out = 0;
proc clamp(int v, int hi) {
    if (v > hi) { return hi; }
    return v;
}
proc main(int p, int q) {
    int a = 0;
    int b = 0;
    a = clamp(p, 10);
    b = clamp(q, 20);
    out = a + b;
}
"""


@pytest.mark.parametrize(
    "source, depth_bound",
    [
        (LOOPY_CALLEE_SOURCE, 8),
        (CALL_IN_LOOP_SOURCE, 10),
        (TWO_SITES_SOURCE, None),
        (TWO_SITES_SOURCE, 1),
        (TWO_SITES_SOURCE, 2),
        (TWO_SITES_SOURCE, 3),
    ],
    ids=["loopy-callee", "call-in-loop", "two-sites", "two-sites-1", "two-sites-2", "two-sites-3"],
)
def test_recording_and_replaying_runs_match_native(source, depth_bound):
    """Calls in and around loops, and a callee shared by two call sites,
    record and then replay exactly, also where the depth bound cuts paths."""
    program = parse_program(source)
    native = symbolic_execute(
        program, "main", depth_bound=depth_bound, solver=ConstraintSolver()
    )
    cache = SummaryCache()
    solver = ConstraintSolver()
    for _ in range(2):
        cached = symbolic_execute(
            program, "main", depth_bound=depth_bound, solver=solver, summary_cache=cache
        )
        assert _distinct(cached.summary) == _distinct(native.summary)
    assert cached.statistics.summary_cache_hits > 0
