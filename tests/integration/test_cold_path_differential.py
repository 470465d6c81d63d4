"""The cold path against its from-scratch references, over the five histories.

Each adjacent version pair of every artifact history runs cold, as
perfbench's pairs-cold workload does: a DiSE run and a full symbolic
execution of the modified version, each with a fresh solver (the base
version runs in full too).  Two references watch every step:

* every answer the context gives (``check`` and ``assume``, so every branch
  probe and every verdict its box decides) has the verdict a from-scratch
  ``ConstraintSolver().check`` of the same constraints has, and every model
  it returns is that check's model;
* every expression the engine and the lookahead evaluate gives the
  identical canonical term the old tree walk gives: translate the AST into
  an unsimplified term, then ``simplify`` it.  The lowered closures are
  wrapped, which sees every lookahead evaluation and every engine memo
  miss, and so is the engine's memoised evaluation, which sees every
  engine evaluation, memo hits included.

No branch of the five histories is infeasible, so ``INFEASIBLE_SUBJECTS``
run in full as well: their branches make the context answer UNSAT, through
the complete solver and through propagation.
"""

import pytest

import repro.symexec.evaluator as evaluator
from repro.artifacts import all_artifacts, interproc_artifacts
from repro.cfg.builder import build_cfg
from repro.core.dise import DiSE
from repro.lang.ast_nodes import BinaryOp, BoolLiteral, IntLiteral, UnaryOp, VarRef
from repro.lang.parser import parse_program
from repro.solver.context import SolverContext
from repro.solver.core import ConstraintSolver
from repro.solver.simplify import simplify
from repro.solver.terms import (
    BinaryTerm,
    BoolConst,
    IntConst,
    NegTerm,
    NotTerm,
    int_symbol,
)
from repro.cfg.ir import NodeKind
from repro.symexec.engine import SymbolicExecutor, symbolic_execute


def tree_walk(expr, environment):
    """The evaluator before lowering: build the whole term, then simplify."""

    def translate(expr):
        if isinstance(expr, IntLiteral):
            return IntConst(expr.value)
        if isinstance(expr, BoolLiteral):
            return BoolConst(expr.value)
        if isinstance(expr, VarRef):
            if expr.name not in environment:
                raise evaluator.UndefinedVariableError(expr.name)
            return environment[expr.name]
        if isinstance(expr, UnaryOp):
            operand = translate(expr.operand)
            return NegTerm(operand) if expr.op == "-" else NotTerm(operand)
        assert isinstance(expr, BinaryOp)
        return BinaryTerm(expr.op, translate(expr.left), translate(expr.right))

    return simplify(translate(expr))


def _outcome(evaluate):
    try:
        return evaluate()
    except Exception as error:  # compared by type: both must fail alike
        return type(error)


def _artifacts():
    return list(all_artifacts()) + list(interproc_artifacts())


#: Programs whose branches produce infeasible probes.
INFEASIBLE_SUBJECTS = (
    # A coupled pair: ``x + y == 7`` and ``x - y == 2`` meet only at
    # x = 4.5, which the complete solver rules out.
    """
global int r = 0;
proc coupled(int x, int y) {
    if (x + y == 7) {
        if (x - y == 2) {
            r = 1;
        } else {
            r = 2;
        }
    }
}
""",
    # Same-variable ``!=`` atoms over a tight interval: p in {3, 6} is left
    # after ``p != 4`` and ``p != 5``; two more empty it.
    """
global int r = 0;
proc tight(int p) {
    if (p >= 3) {
        if (p <= 6) {
            if (p != 4) {
                if (p != 5) {
                    r = 1;
                    if (p != 3) {
                        if (p != 6) {
                            r = 2;
                        }
                    }
                }
            }
        }
    }
}
""",
    # Propagation conflicts: bounds that empty an interval, directly and
    # through a two-variable atom.
    """
global int r = 0;
proc conflict(int a, int b) {
    if (a > 5) {
        if (a + b < 0) {
            if (b > 0) {
                r = 1;
            }
        }
        if (a < 3) {
            r = 2;
        }
    }
}
""",
)


@pytest.fixture(scope="module")
def cold_corpus():
    """Run every pair cold, recording context answers and evaluations."""
    answers = []
    evaluations = {"count": 0, "undefined": 0, "mismatches": []}
    engine_evaluations = {"count": 0, "hits": 0, "mismatches": []}
    fallbacks = 0
    lower = evaluator.lower_expression

    def recording_lower(expr):
        lowered = lower(expr)

        def evaluate(environment):
            got = _outcome(lambda: lowered(environment))
            evaluations["count"] += 1
            if got is evaluator.UndefinedVariableError:
                evaluations["undefined"] += 1
            if got is not _outcome(lambda: tree_walk(expr, environment)):
                evaluations["mismatches"].append((str(expr), got))
            if isinstance(got, type):
                raise got(str(expr))
            return got

        return evaluate

    memoised = SymbolicExecutor._evaluate

    def checked_evaluate(self, state, node):
        stored = len(self._values)
        got = _outcome(lambda: memoised(self, state, node))
        engine_evaluations["count"] += 1
        engine_evaluations["hits"] += len(self._values) == stored and not isinstance(got, type)
        if node.kind is NodeKind.ASSIGN:
            expressions = (node.expr,)
        elif node.kind is NodeKind.BRANCH:
            expressions = (node.condition,)
        else:
            expressions = node.call_args
        environment = state.env_map()
        wanted = [_outcome(lambda: tree_walk(expr, environment)) for expr in expressions]
        failed = [want for want in wanted if isinstance(want, type)]
        if isinstance(got, type):
            same = failed[:1] == [got]
        else:
            values = got if node.kind is NodeKind.CALL else (got,)
            same = not failed and all(value is want for value, want in zip(values, wanted))
        if not same:
            engine_evaluations["mismatches"].append((str(node), got))
        if isinstance(got, type):
            raise got(str(node))
        return got

    check, assume = SolverContext.check, SolverContext.assume

    def recording_check(self, with_model=True):
        result = check(self, with_model)
        answers.append((self.constraints(), result))
        return result

    def recording_assume(self, constraint, with_model=True):
        result = assume(self, constraint, with_model)
        answers.append((self.constraints() + (simplify(constraint),), result))
        return result

    # The CFG builder lowers each node's expressions through the module
    # attribute, so every node built below records its evaluations.
    evaluator.lower_expression = recording_lower
    SymbolicExecutor._evaluate = checked_evaluate
    SolverContext.check, SolverContext.assume = recording_check, recording_assume
    try:
        for artifact in _artifacts():
            programs = [parse_program(source) for _, _, _, source in artifact.history()]
            for index, program in enumerate(programs):
                if index:
                    solver = ConstraintSolver()
                    DiSE(
                        programs[index - 1],
                        program,
                        procedure_name=artifact.procedure_name,
                        solver=solver,
                    ).run()
                    fallbacks += solver.statistics.context_fallbacks
                solver = ConstraintSolver()
                symbolic_execute(program, procedure_name=artifact.procedure_name, solver=solver)
                fallbacks += solver.statistics.context_fallbacks
        for source in INFEASIBLE_SUBJECTS:
            solver = ConstraintSolver()
            symbolic_execute(parse_program(source), solver=solver)
            fallbacks += solver.statistics.context_fallbacks
    finally:
        evaluator.lower_expression = lower
        SymbolicExecutor._evaluate = memoised
        SolverContext.check, SolverContext.assume = check, assume
    return answers, evaluations, engine_evaluations, fallbacks


def test_every_context_answer_matches_a_from_scratch_check(cold_corpus):
    answers, _, _, _ = cold_corpus
    assert len(answers) > 1000
    assert sum(not answer.satisfiable for _, answer in answers) > 0
    plain = {}
    for constraints, answer in answers:
        if constraints not in plain:
            plain[constraints] = ConstraintSolver().check(list(constraints))
        expected = plain[constraints]
        assert answer.satisfiable == expected.satisfiable, constraints
        if answer.model is not None:
            assert answer.model == expected.model, constraints


def test_the_histories_need_no_deferred_fallback(cold_corpus):
    _, _, _, fallbacks = cold_corpus
    assert fallbacks == 0


def test_lowered_evaluation_matches_the_tree_walk(cold_corpus):
    _, evaluations, _, _ = cold_corpus
    assert evaluations["count"] > 10_000
    # The lookahead evaluates under partial environments too.
    assert evaluations["undefined"] > 0
    assert evaluations["mismatches"] == []


def test_every_engine_evaluation_matches_the_tree_walk(cold_corpus):
    """Memo hits included: the closures above see only the misses."""
    _, _, engine_evaluations, _ = cold_corpus
    assert engine_evaluations["count"] > 10_000
    assert engine_evaluations["hits"] > engine_evaluations["count"] // 2
    assert engine_evaluations["mismatches"] == []


def test_every_node_expression_is_lowered():
    """Every node expression of every version, under a symbolic environment."""
    for artifact in _artifacts():
        for _, _, _, source in artifact.history():
            cfg = build_cfg(parse_program(source), artifact.procedure_name)
            for node in cfg.nodes:
                lowered = [(node.expr, node.lowered_expr), (node.condition, node.lowered_condition)]
                lowered += list(zip(node.call_args, node.lowered_args))
                assert len(node.lowered_args) == len(node.call_args)
                for expr, closure in lowered:
                    assert (expr is None) == (closure is None), node
                    if expr is None:
                        continue
                    environment = {name: int_symbol(name) for name in expr.variables()}
                    assert closure(environment) is tree_walk(expr, environment), expr
