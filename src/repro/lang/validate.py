"""Semantic validation of MiniLang programs.

Performs simple name-resolution and type checking before CFG construction so
that later analyses can assume a well-formed program:

* every variable is declared (as a global, parameter or local) before use;
* no variable is declared twice in the same scope;
* arithmetic operators only apply to ``int`` operands, logical operators only
  to ``bool`` operands, and branch/loop/assert conditions are ``bool``;
* assignments do not change a variable's declared type;
* procedure calls name a defined procedure with matching arity and argument
  types, the call graph is acyclic (recursion is rejected for now -- the CFG
  flattening splices callee bodies inline, which requires termination), and a
  call used as a value (``y = f(...)``) targets a procedure all of whose
  returns carry a value of ``y``'s type and whose body guarantees a valued
  return on every path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lang.ast_nodes import (
    ARITHMETIC_OPS,
    BOOL_TYPE,
    COMPARISON_OPS,
    INT_TYPE,
    LOGICAL_OPS,
    Assert,
    Assign,
    BinaryOp,
    BoolLiteral,
    CallStmt,
    Expr,
    If,
    IntLiteral,
    Procedure,
    Program,
    Return,
    Skip,
    Stmt,
    UnaryOp,
    VarDecl,
    VarRef,
    While,
    walk_statements,
)
from repro.lang.errors import SemanticError


@dataclass(frozen=True)
class ProcedureSignature:
    """The call-site-facing interface of one procedure."""

    name: str
    param_types: Tuple[str, ...]
    #: Type of the valued returns, or None when the procedure never returns
    #: a value (a bare call is then the only legal call form).
    return_type: Optional[str]
    #: Whether some path can leave the procedure without a valued return
    #: (falling off the end or a bare ``return;``).
    may_miss_return: bool = False


class TypeEnvironment:
    """Maps variable names to their declared types within one procedure."""

    def __init__(self, globals_: Dict[str, str]):
        self._globals = dict(globals_)
        self._locals: Dict[str, str] = {}

    def declare(self, name: str, type_name: str, line: int) -> None:
        if name in self._locals:
            raise SemanticError(f"Variable {name!r} is declared twice", line)
        if name in self._globals:
            # Shadowing a global would make a callee's view of the global
            # ambiguous once procedure calls switch scopes; reject it.
            raise SemanticError(f"Variable {name!r} shadows a global", line)
        self._locals[name] = type_name

    def lookup(self, name: str, line: int) -> str:
        if name in self._locals:
            return self._locals[name]
        if name in self._globals:
            return self._globals[name]
        raise SemanticError(f"Variable {name!r} is not declared", line)


def validate_program(program: Program) -> None:
    """Validate a whole program; raises :class:`SemanticError` on problems."""
    globals_: Dict[str, str] = {}
    for decl in program.globals:
        if decl.name in globals_:
            raise SemanticError(f"Global {decl.name!r} is declared twice", decl.line)
        if decl.init is not None:
            init_type = _literal_type(decl.init, decl.line)
            if init_type != decl.type_name:
                raise SemanticError(
                    f"Global {decl.name!r} of type {decl.type_name} initialised "
                    f"with a {init_type} literal",
                    decl.line,
                )
        globals_[decl.name] = decl.type_name

    names = set()
    for proc in program.procedures:
        if proc.name in names:
            raise SemanticError(f"Procedure {proc.name!r} is defined twice", proc.line)
        names.add(proc.name)

    _check_call_graph(program)
    signatures = {
        proc.name: procedure_signature(proc, globals_) for proc in program.procedures
    }
    for proc in program.procedures:
        validate_procedure(proc, globals_, signatures)


def _check_call_graph(program: Program) -> None:
    """Reject calls to undefined procedures and any recursion (even indirect).

    Delegates to :mod:`repro.cfg.callgraph` (imported locally -- the cfg
    package depends on the ``lang`` AST modules, so a module-level import
    would be circular) and translates its errors into semantic ones.
    """
    from repro.cfg.callgraph import CallGraphError, build_call_graph

    try:
        build_call_graph(program).topological_order()
    except CallGraphError as error:
        message = str(error)
        if "cycle" in message.lower():
            message += " (recursion is not supported)"
        raise SemanticError(message) from None


def procedure_signature(proc: Procedure, globals_: Dict[str, str]) -> ProcedureSignature:
    """Compute a procedure's call-site-facing signature.

    The return type is inferred from the valued ``return`` statements using a
    flow-insensitive environment of every declaration in the procedure
    (params, locals and call targets are all explicitly typed, so typing a
    return expression never needs another procedure's signature).
    """
    declared: Dict[str, str] = dict(globals_)
    for param in proc.params:
        declared[param.name] = param.type_name
    for stmt in walk_statements(proc.body):
        if isinstance(stmt, VarDecl):
            declared[stmt.name] = stmt.type_name
    flat_env = TypeEnvironment(declared)

    return_type: Optional[str] = None
    has_bare_return = False
    for stmt in walk_statements(proc.body):
        if not isinstance(stmt, Return):
            continue
        if stmt.value is None:
            has_bare_return = True
            continue
        try:
            value_type = _check_expr(stmt.value, flat_env)
        except SemanticError:
            # The expression references something undeclared or ill-typed;
            # the per-statement validation pass reports it with the proper
            # flow-sensitive context, so the signature stays permissive here.
            continue
        if return_type is None:
            return_type = value_type
        elif return_type != value_type:
            raise SemanticError(
                f"Procedure {proc.name!r} returns both {return_type} and {value_type}",
                stmt.line,
            )
    may_miss = has_bare_return or not _guarantees_valued_return(proc.body)
    return ProcedureSignature(
        name=proc.name,
        param_types=tuple(p.type_name for p in proc.params),
        return_type=return_type,
        may_miss_return=may_miss,
    )


def _guarantees_valued_return(statements: List[Stmt]) -> bool:
    """True when every path through ``statements`` ends in ``return <expr>;``."""
    for stmt in statements:
        if isinstance(stmt, Return) and stmt.value is not None:
            return True
        if (
            isinstance(stmt, If)
            and stmt.else_body
            and _guarantees_valued_return(stmt.then_body)
            and _guarantees_valued_return(stmt.else_body)
        ):
            return True
    return False


def validate_procedure(
    proc: Procedure,
    globals_: Dict[str, str],
    signatures: Optional[Dict[str, ProcedureSignature]] = None,
) -> None:
    """Validate one procedure against the given global environment.

    ``signatures`` supplies the callable procedures; validating a procedure
    containing calls without them reports the callee as undefined.
    """
    env = TypeEnvironment(globals_)
    for param in proc.params:
        env.declare(param.name, param.type_name, param.line)
    _check_statements(proc.body, env, signatures or {})


def _literal_type(expr: Expr, line: int) -> str:
    if isinstance(expr, IntLiteral):
        return INT_TYPE
    if isinstance(expr, BoolLiteral):
        return BOOL_TYPE
    if isinstance(expr, UnaryOp) and expr.op == "-" and isinstance(expr.operand, IntLiteral):
        return INT_TYPE
    raise SemanticError("Global initialisers must be literals", line)


def _check_statements(
    statements: List[Stmt],
    env: TypeEnvironment,
    signatures: Dict[str, ProcedureSignature],
) -> None:
    for stmt in statements:
        _check_statement(stmt, env, signatures)


def _check_call(
    stmt: CallStmt, env: TypeEnvironment, signatures: Dict[str, ProcedureSignature]
) -> None:
    signature = signatures.get(stmt.callee)
    if signature is None:
        raise SemanticError(f"Call to undefined procedure {stmt.callee!r}", stmt.line)
    if len(stmt.args) != len(signature.param_types):
        raise SemanticError(
            f"Procedure {stmt.callee!r} takes {len(signature.param_types)} "
            f"argument(s), got {len(stmt.args)}",
            stmt.line,
        )
    for position, (arg, expected) in enumerate(zip(stmt.args, signature.param_types)):
        actual = _check_expr(arg, env)
        if actual != expected:
            raise SemanticError(
                f"Argument {position + 1} of {stmt.callee!r} must be {expected}, "
                f"found {actual}",
                stmt.line,
            )
    if stmt.target is None:
        return
    declared = env.lookup(stmt.target, stmt.line)
    if signature.return_type is None:
        raise SemanticError(
            f"Procedure {stmt.callee!r} returns no value; it cannot be assigned "
            f"to {stmt.target!r}",
            stmt.line,
        )
    if signature.may_miss_return:
        raise SemanticError(
            f"Procedure {stmt.callee!r} does not return a value on every path; "
            f"it cannot be assigned to {stmt.target!r}",
            stmt.line,
        )
    if declared != signature.return_type:
        raise SemanticError(
            f"Cannot assign {signature.return_type} result of {stmt.callee!r} "
            f"to {declared} variable {stmt.target!r}",
            stmt.line,
        )


def _check_statement(
    stmt: Stmt, env: TypeEnvironment, signatures: Dict[str, ProcedureSignature]
) -> None:
    if isinstance(stmt, VarDecl):
        if stmt.init is not None:
            init_type = _check_expr(stmt.init, env)
            if init_type != stmt.type_name:
                raise SemanticError(
                    f"Cannot initialise {stmt.type_name} {stmt.name!r} with a "
                    f"{init_type} expression",
                    stmt.line,
                )
        env.declare(stmt.name, stmt.type_name, stmt.line)
    elif isinstance(stmt, Assign):
        declared = env.lookup(stmt.name, stmt.line)
        value_type = _check_expr(stmt.value, env)
        if declared != value_type:
            raise SemanticError(
                f"Cannot assign a {value_type} expression to {declared} variable "
                f"{stmt.name!r}",
                stmt.line,
            )
    elif isinstance(stmt, CallStmt):
        _check_call(stmt, env, signatures)
    elif isinstance(stmt, If):
        _require_bool(stmt.condition, env, stmt.line, "if condition")
        _check_statements(stmt.then_body, env, signatures)
        _check_statements(stmt.else_body, env, signatures)
    elif isinstance(stmt, While):
        _require_bool(stmt.condition, env, stmt.line, "while condition")
        _check_statements(stmt.body, env, signatures)
    elif isinstance(stmt, Assert):
        _require_bool(stmt.condition, env, stmt.line, "assert condition")
    elif isinstance(stmt, Return):
        if stmt.value is not None:
            _check_expr(stmt.value, env)
    elif isinstance(stmt, Skip):
        pass
    else:
        raise SemanticError(f"Unknown statement type {type(stmt).__name__}", getattr(stmt, "line", 0))


def _require_bool(expr: Expr, env: TypeEnvironment, line: int, what: str) -> None:
    actual = _check_expr(expr, env)
    if actual != BOOL_TYPE:
        raise SemanticError(f"{what} must be a bool expression, found {actual}", line)


def _check_expr(expr: Expr, env: TypeEnvironment) -> str:
    if isinstance(expr, IntLiteral):
        return INT_TYPE
    if isinstance(expr, BoolLiteral):
        return BOOL_TYPE
    if isinstance(expr, VarRef):
        return env.lookup(expr.name, expr.line)
    if isinstance(expr, UnaryOp):
        operand_type = _check_expr(expr.operand, env)
        if expr.op == "-":
            if operand_type != INT_TYPE:
                raise SemanticError("Unary '-' requires an int operand", expr.line)
            return INT_TYPE
        if expr.op == "!":
            if operand_type != BOOL_TYPE:
                raise SemanticError("Unary '!' requires a bool operand", expr.line)
            return BOOL_TYPE
        raise SemanticError(f"Unknown unary operator {expr.op!r}", expr.line)
    if isinstance(expr, BinaryOp):
        left = _check_expr(expr.left, env)
        right = _check_expr(expr.right, env)
        if expr.op in ARITHMETIC_OPS:
            if left != INT_TYPE or right != INT_TYPE:
                raise SemanticError(f"Operator {expr.op!r} requires int operands", expr.line)
            return INT_TYPE
        if expr.op in COMPARISON_OPS:
            if left != right:
                raise SemanticError(
                    f"Comparison {expr.op!r} requires operands of the same type", expr.line
                )
            if expr.op not in ("==", "!=") and left != INT_TYPE:
                raise SemanticError(
                    f"Ordering comparison {expr.op!r} requires int operands", expr.line
                )
            return BOOL_TYPE
        if expr.op in LOGICAL_OPS:
            if left != BOOL_TYPE or right != BOOL_TYPE:
                raise SemanticError(f"Operator {expr.op!r} requires bool operands", expr.line)
            return BOOL_TYPE
        raise SemanticError(f"Unknown binary operator {expr.op!r}", expr.line)
    raise SemanticError(f"Unknown expression type {type(expr).__name__}", getattr(expr, "line", 0))
