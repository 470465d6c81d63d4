"""Call graph and name-independent procedure content digests.

The interprocedural pipeline needs two facts about a program's procedures:

* **who calls whom** (and from which statements), so change impact can be
  propagated from an edited callee to every call site that reaches it; and
* a **content digest** per procedure that is a pure function of the
  procedure's *behaviour* -- its parameters, its body IR and, transitively,
  the content of every procedure it calls -- but never of procedure *names*.
  Region hashes embed these digests at call sites
  (:meth:`repro.cfg.ir.CFGNode.structural_key`), which makes a caller
  region's digest change exactly when a callee it reaches is edited, and
  keeps it stable when a callee is merely renamed.

Recursion is rejected by the validator (:mod:`repro.lang.validate`); the
digest computation guards against cycles anyway so it can be used on
unvalidated programs without hanging.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.lang.ast_nodes import (
    CallStmt,
    If,
    Procedure,
    Program,
    Stmt,
    While,
    walk_statements,
)


class CallGraphError(ValueError):
    """Raised for unresolvable callees or call cycles."""


@dataclass(frozen=True)
class CallSite:
    """One syntactic call: the calling procedure, statement and callee."""

    caller: str
    callee: str
    stmt: CallStmt
    line: int


@dataclass
class CallGraph:
    """The static call structure of one program."""

    program: Program
    #: caller name -> callee names in first-call order.
    callees: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: callee name -> caller names (sorted).
    callers: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    sites: List[CallSite] = field(default_factory=list)

    def calls(self, caller: str) -> Tuple[str, ...]:
        return self.callees.get(caller, ())

    def callers_of(self, callee: str) -> Tuple[str, ...]:
        return self.callers.get(callee, ())

    def transitive_callees(self, name: str) -> FrozenSet[str]:
        """Every procedure reachable from ``name`` through calls (exclusive)."""
        seen: Set[str] = set()
        stack = list(self.callees.get(name, ()))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.callees.get(current, ()))
        return frozenset(seen)

    def reaches(self, caller: str, callee: str) -> bool:
        """True when ``caller`` can (transitively) call ``callee``."""
        return callee in self.transitive_callees(caller)

    def topological_order(self) -> List[str]:
        """Procedure names with every callee before its callers.

        Raises:
            CallGraphError: when the call graph contains a cycle.
        """
        order: List[str] = []
        state: Dict[str, int] = {}  # 1 = on stack, 2 = done
        for proc in self.program.procedures:
            if state.get(proc.name):
                continue
            stack: List[Tuple[str, int]] = [(proc.name, 0)]
            state[proc.name] = 1
            while stack:
                name, index = stack[-1]
                callees = self.callees.get(name, ())
                if index >= len(callees):
                    state[name] = 2
                    order.append(name)
                    stack.pop()
                    continue
                stack[-1] = (name, index + 1)
                callee = callees[index]
                if state.get(callee) == 1:
                    raise CallGraphError(f"Call cycle through {callee!r}")
                if not state.get(callee):
                    state[callee] = 1
                    stack.append((callee, 0))
        return order


def build_call_graph(program: Program) -> CallGraph:
    """Build the :class:`CallGraph` of ``program``.

    Raises:
        CallGraphError: when a call names a procedure the program lacks.
    """
    graph = CallGraph(program=program)
    defined = {proc.name for proc in program.procedures}
    callers: Dict[str, Set[str]] = {}
    for proc in program.procedures:
        callee_order: List[str] = []
        for stmt in walk_statements(proc.body):
            if not isinstance(stmt, CallStmt):
                continue
            if stmt.callee not in defined:
                raise CallGraphError(
                    f"{proc.name}: call to undefined procedure {stmt.callee!r} "
                    f"(line {stmt.line})"
                )
            graph.sites.append(
                CallSite(caller=proc.name, callee=stmt.callee, stmt=stmt, line=stmt.line)
            )
            if stmt.callee not in callee_order:
                callee_order.append(stmt.callee)
            callers.setdefault(stmt.callee, set()).add(proc.name)
        graph.callees[proc.name] = tuple(callee_order)
    graph.callers = {name: tuple(sorted(names)) for name, names in callers.items()}
    return graph


# ---------------------------------------------------------------------------
# content digests
# ---------------------------------------------------------------------------


def _content_key(stmt: Stmt, digests: Dict[str, str]) -> tuple:
    """A statement's structural key with callee names replaced by digests."""
    if isinstance(stmt, CallStmt):
        return (
            "call",
            stmt.target,
            digests[stmt.callee],
            tuple(arg.structural_key() for arg in stmt.args),
        )
    if isinstance(stmt, If):
        return (
            "if",
            stmt.condition.structural_key(),
            tuple(_content_key(s, digests) for s in stmt.then_body),
            tuple(_content_key(s, digests) for s in stmt.else_body),
        )
    if isinstance(stmt, While):
        return (
            "while",
            stmt.condition.structural_key(),
            tuple(_content_key(s, digests) for s in stmt.body),
        )
    return stmt.structural_key()


def _procedure_digest(proc: Procedure, digests: Dict[str, str]) -> str:
    key = (
        "proc-content",
        tuple(p.structural_key() for p in proc.params),
        tuple(_content_key(s, digests) for s in proc.body),
    )
    return hashlib.blake2b(repr(key).encode("utf-8"), digest_size=16).hexdigest()


def procedure_digests(
    program: Program, call_graph: CallGraph = None
) -> Dict[str, str]:
    """Name-independent, transitively call-aware content digests.

    ``digests[p] == digests[q]`` iff the two procedures have identical
    parameters and bodies up to renaming of the procedures they call (with
    the renamed callees themselves content-identical, recursively).  Editing
    any transitively reachable callee changes the caller's digest.
    """
    graph = call_graph if call_graph is not None else build_call_graph(program)
    digests: Dict[str, str] = {}
    for name in graph.topological_order():
        digests[name] = _procedure_digest(program.procedure(name), digests)
    return digests
