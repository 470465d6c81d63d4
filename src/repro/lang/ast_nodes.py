"""Abstract syntax tree node definitions for MiniLang.

Every node carries a source ``line`` so that the CFG builder and the diff
analysis can relate nodes back to source locations, mirroring the way the
paper's AST diff relates changed Java statements to CFG nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

INT_TYPE = "int"
BOOL_TYPE = "bool"
TYPES = (INT_TYPE, BOOL_TYPE)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for all expression nodes."""

    def variables(self) -> Tuple[str, ...]:
        """Return the names of all variables read by this expression."""
        raise NotImplementedError

    def structural_key(self) -> tuple:
        """A hashable key describing the expression's structure (ignores lines)."""
        raise NotImplementedError


@dataclass(frozen=True)
class IntLiteral(Expr):
    """An integer constant, e.g. ``42``."""

    value: int
    line: int = 0

    def variables(self) -> Tuple[str, ...]:
        return ()

    def structural_key(self) -> tuple:
        return ("int", self.value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class BoolLiteral(Expr):
    """A boolean constant, ``true`` or ``false``."""

    value: bool
    line: int = 0

    def variables(self) -> Tuple[str, ...]:
        return ()

    def structural_key(self) -> tuple:
        return ("bool", self.value)

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class VarRef(Expr):
    """A reference to a variable by name."""

    name: str
    line: int = 0

    def variables(self) -> Tuple[str, ...]:
        return (self.name,)

    def structural_key(self) -> tuple:
        return ("var", self.name)

    def __str__(self) -> str:
        return self.name


#: Binary operators grouped by kind.
ARITHMETIC_OPS = ("+", "-", "*", "/", "%")
COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")
LOGICAL_OPS = ("&&", "||")
BINARY_OPS = ARITHMETIC_OPS + COMPARISON_OPS + LOGICAL_OPS


@dataclass(frozen=True)
class BinaryOp(Expr):
    """A binary operation ``left op right``."""

    op: str
    left: Expr
    right: Expr
    line: int = 0

    def variables(self) -> Tuple[str, ...]:
        seen = []
        for name in self.left.variables() + self.right.variables():
            if name not in seen:
                seen.append(name)
        return tuple(seen)

    def structural_key(self) -> tuple:
        return ("binop", self.op, self.left.structural_key(), self.right.structural_key())

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """A unary operation: ``-expr`` or ``!expr``."""

    op: str
    operand: Expr
    line: int = 0

    def variables(self) -> Tuple[str, ...]:
        return self.operand.variables()

    def structural_key(self) -> tuple:
        return ("unop", self.op, self.operand.structural_key())

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for all statement nodes."""

    def structural_key(self) -> tuple:
        """A hashable key describing the statement's structure (ignores lines)."""
        raise NotImplementedError


@dataclass
class VarDecl(Stmt):
    """A local variable declaration, optionally with an initialiser."""

    type_name: str
    name: str
    init: Optional[Expr] = None
    line: int = 0

    def structural_key(self) -> tuple:
        init_key = self.init.structural_key() if self.init is not None else None
        return ("decl", self.type_name, self.name, init_key)

    def __str__(self) -> str:
        if self.init is not None:
            return f"{self.type_name} {self.name} = {self.init};"
        return f"{self.type_name} {self.name};"


@dataclass
class Assign(Stmt):
    """An assignment ``name = expr;``."""

    name: str
    value: Expr
    line: int = 0

    def structural_key(self) -> tuple:
        return ("assign", self.name, self.value.structural_key())

    def __str__(self) -> str:
        return f"{self.name} = {self.value};"


@dataclass
class If(Stmt):
    """A conditional with an optional else branch."""

    condition: Expr
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)
    line: int = 0

    def structural_key(self) -> tuple:
        return (
            "if",
            self.condition.structural_key(),
            tuple(s.structural_key() for s in self.then_body),
            tuple(s.structural_key() for s in self.else_body),
        )

    def __str__(self) -> str:
        return f"if ({self.condition}) ..."


@dataclass
class While(Stmt):
    """A while loop."""

    condition: Expr
    body: List[Stmt] = field(default_factory=list)
    line: int = 0

    def structural_key(self) -> tuple:
        return (
            "while",
            self.condition.structural_key(),
            tuple(s.structural_key() for s in self.body),
        )

    def __str__(self) -> str:
        return f"while ({self.condition}) ..."


@dataclass
class Assert(Stmt):
    """An assertion. Symbolic execution reports an error state when it fails."""

    condition: Expr
    line: int = 0

    def structural_key(self) -> tuple:
        return ("assert", self.condition.structural_key())

    def __str__(self) -> str:
        return f"assert {self.condition};"


@dataclass
class CallStmt(Stmt):
    """A procedure call: ``f(a, b);`` or ``y = f(a, b);``.

    Calls are statements, not expressions: a call may appear bare (return
    value discarded) or as the entire right-hand side of an assignment,
    which keeps the symbolic engine's evaluation of ordinary expressions
    side-effect free.
    """

    callee: str
    args: List[Expr] = field(default_factory=list)
    target: Optional[str] = None
    line: int = 0

    def structural_key(self) -> tuple:
        return (
            "call",
            self.target,
            self.callee,
            tuple(arg.structural_key() for arg in self.args),
        )

    def __str__(self) -> str:
        args = ", ".join(str(arg) for arg in self.args)
        call = f"{self.callee}({args})"
        if self.target is not None:
            return f"{self.target} = {call};"
        return f"{call};"


@dataclass
class Return(Stmt):
    """A return statement with an optional value."""

    value: Optional[Expr] = None
    line: int = 0

    def structural_key(self) -> tuple:
        value_key = self.value.structural_key() if self.value is not None else None
        return ("return", value_key)

    def __str__(self) -> str:
        if self.value is not None:
            return f"return {self.value};"
        return "return;"


@dataclass
class Skip(Stmt):
    """A no-op statement."""

    line: int = 0

    def structural_key(self) -> tuple:
        return ("skip",)

    def __str__(self) -> str:
        return "skip;"


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param:
    """A formal parameter of a procedure."""

    type_name: str
    name: str
    line: int = 0

    def structural_key(self) -> tuple:
        return ("param", self.type_name, self.name)

    def __str__(self) -> str:
        return f"{self.type_name} {self.name}"


@dataclass
class GlobalDecl:
    """A global variable declaration with an optional constant initialiser."""

    type_name: str
    name: str
    init: Optional[Expr] = None
    line: int = 0

    def structural_key(self) -> tuple:
        init_key = self.init.structural_key() if self.init is not None else None
        return ("global", self.type_name, self.name, init_key)

    def __str__(self) -> str:
        if self.init is not None:
            return f"global {self.type_name} {self.name} = {self.init};"
        return f"global {self.type_name} {self.name};"


@dataclass
class Procedure:
    """A procedure definition: name, parameters and a statement body."""

    name: str
    params: List[Param] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)
    line: int = 0

    def structural_key(self) -> tuple:
        return (
            "proc",
            self.name,
            tuple(p.structural_key() for p in self.params),
            tuple(s.structural_key() for s in self.body),
        )

    def param_names(self) -> List[str]:
        return [p.name for p in self.params]

    def local_names(self) -> List[str]:
        """Names declared by ``VarDecl`` statements anywhere in the body."""
        names: List[str] = []
        for stmt in walk_statements(self.body):
            if isinstance(stmt, VarDecl) and stmt.name not in names:
                names.append(stmt.name)
        return names

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        return f"proc {self.name}({params}) ..."


@dataclass
class Program:
    """A full MiniLang compilation unit: globals plus procedures."""

    globals: List[GlobalDecl] = field(default_factory=list)
    procedures: List[Procedure] = field(default_factory=list)

    def structural_key(self) -> tuple:
        return (
            "program",
            tuple(g.structural_key() for g in self.globals),
            tuple(p.structural_key() for p in self.procedures),
        )

    def procedure(self, name: str) -> Procedure:
        """Return the procedure called ``name``.

        Raises:
            KeyError: if no procedure with that name exists.
        """
        for proc in self.procedures:
            if proc.name == name:
                return proc
        raise KeyError(f"No procedure named {name!r}")

    def __str__(self) -> str:
        names = ", ".join(p.name for p in self.procedures)
        return f"Program(globals={len(self.globals)}, procedures=[{names}])"


def walk_statements(statements: List[Stmt]):
    """Yield every statement in ``statements``, recursing into bodies."""
    for stmt in statements:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_statements(stmt.then_body)
            yield from walk_statements(stmt.else_body)
        elif isinstance(stmt, While):
            yield from walk_statements(stmt.body)
