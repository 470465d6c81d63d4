"""Constraint solving for path conditions.

This subpackage fills the role of the Choco solver in the paper's SPF-based
implementation: checking path conditions for satisfiability during symbolic
execution and producing concrete models used for test input generation.
"""

from repro.solver.context import SolverContext
from repro.solver.core import (
    BudgetExhausted,
    ConstraintSolver,
    DeadlineBudget,
    SolverError,
    SolverResult,
    SolverStatistics,
)
from repro.solver.intervals import DEFAULT_BOUND, Interval, initial_domains, propagate
from repro.solver.linear import (
    EQ,
    LE,
    NE,
    LinearAtom,
    LinearExpr,
    NonLinearError,
    linearize_comparison,
    linearize_int,
)
from repro.solver.simplify import simplify
from repro.solver.terms import (
    BOOL_SORT,
    FALSE,
    INT_SORT,
    TRUE,
    Assignment,
    BinaryTerm,
    BoolConst,
    EvaluationError,
    IntConst,
    NegTerm,
    NotTerm,
    Symbol,
    Term,
    bool_symbol,
    conjunction,
    int_symbol,
    interned_count,
    negate,
)

__all__ = [
    "SolverContext",
    "BudgetExhausted",
    "ConstraintSolver",
    "DeadlineBudget",
    "SolverError",
    "SolverResult",
    "SolverStatistics",
    "DEFAULT_BOUND",
    "Interval",
    "initial_domains",
    "propagate",
    "EQ",
    "LE",
    "NE",
    "LinearAtom",
    "LinearExpr",
    "NonLinearError",
    "linearize_comparison",
    "linearize_int",
    "simplify",
    "BOOL_SORT",
    "INT_SORT",
    "TRUE",
    "FALSE",
    "Assignment",
    "BinaryTerm",
    "BoolConst",
    "EvaluationError",
    "IntConst",
    "NegTerm",
    "NotTerm",
    "Symbol",
    "Term",
    "bool_symbol",
    "int_symbol",
    "conjunction",
    "interned_count",
    "negate",
]
