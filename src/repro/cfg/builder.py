"""Lowering of MiniLang procedures to control flow graphs.

Every statement becomes one CFG node (writes and conditional branches), so
the resulting graph matches the vocabulary of the DiSE static analysis:

* ``VarDecl`` and ``Assign`` become write (``ASSIGN``) nodes;
* ``if``/``while``/``assert`` conditions become ``BRANCH`` nodes;
* ``assert`` is de-sugared the way the paper describes (section 5.1): the
  false edge of its branch node leads to an ``ERROR`` node which then flows
  to the procedure exit;
* ``return`` flows directly to the exit node (or, inside a spliced callee,
  to the call site's ``CALL_RETURN`` node);
* node identifiers are assigned in source order so the example in Figure 2
  of the paper produces the same ``n0`` ... ``n14`` naming.

**Interprocedural flattening.**  A :class:`~repro.lang.ast_nodes.CallStmt`
lowers to a ``CALL`` node, the callee's body spliced inline (recursion is
rejected, so splicing terminates), and a matching ``CALL_RETURN`` node:

* the ``CALL`` node evaluates the arguments in the caller's scope and pushes
  a call frame (the engine sets aside every non-global caller binding and
  switches to ``globals ∪ formals`` -- see
  :class:`repro.symexec.state.CallFrame`);
* the spliced body is an ordinary re-lowering of the callee's statements,
  one fresh flat node per statement per call site, so every analysis
  (affected sets, control dependence, region hashing, the lookahead) works
  on one plain graph;
* the ``CALL_RETURN`` node pops the frame, restores the caller's shadowed
  bindings and assigns the callee's return value to the call target;
* ``assert`` failures inside a callee flow to the flattened graph's exit --
  an assertion violation aborts the whole execution, not just the callee.

Call nodes carry the callee's name-independent content digest
(:func:`repro.cfg.callgraph.procedure_digests`), so region hashes over the
flattened graph change exactly when a transitively called procedure's IR
changes -- and survive pure renames.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cfg.graph import ControlFlowGraph
from repro.cfg.ir import FALLTHROUGH_EDGE, FALSE_EDGE, TRUE_EDGE, CFGNode, NodeKind
from repro.lang.ast_nodes import (
    Assert,
    Assign,
    BoolLiteral,
    CallStmt,
    If,
    IntLiteral,
    Procedure,
    Program,
    Return,
    Skip,
    Stmt,
    VarDecl,
    While,
)

#: A dangling edge waiting for its target: (source node, edge label).
PendingEdge = Tuple[CFGNode, str]

#: Name of the synthetic variable that receives ``return <expr>`` values.
RETURN_VARIABLE = "__return__"


class CFGBuilder:
    """Builds a :class:`ControlFlowGraph` from a MiniLang procedure.

    Args:
        procedure: the (entry) procedure to lower.
        program: the owning program; required to resolve procedure calls
            (supplies the callee bodies spliced inline and their content
            digests).  A bare procedure without calls lowers fine without it.
    """

    def __init__(self, procedure: Procedure, program: Optional[Program] = None):
        self.procedure = procedure
        self.program = program
        self.cfg = ControlFlowGraph(procedure.name)
        #: Edges that must go to the innermost return target: the procedure
        #: exit at splice depth 0, the active CALL_RETURN node inside a
        #: spliced callee.
        self._deferred_exit_edges: List[PendingEdge] = []
        #: Edges from assertion-failure ERROR nodes; always routed to the
        #: flattened graph's exit regardless of splice depth.
        self._deferred_error_edges: List[PendingEdge] = []
        #: Current call-splice nesting depth and the active callee chain
        #: (recursion guard for unvalidated programs).
        self._call_depth = 0
        self._splice_stack: List[str] = []
        self._digests: Optional[Dict[str, str]] = None

    def build(self) -> ControlFlowGraph:
        """Construct and return the CFG for the procedure."""
        begin = self._new_node(NodeKind.BEGIN, label="begin")
        pending = self._build_statements(self.procedure.body, [(begin, FALLTHROUGH_EDGE)])
        end = self._new_node(NodeKind.END, label="end")
        self._connect(pending, end)
        for node, label in self._deferred_exit_edges + self._deferred_error_edges:
            self.cfg.add_edge(node, end, label)
        self.cfg.check_well_formed()
        return self.cfg

    def _new_node(self, kind: NodeKind, **fields) -> CFGNode:
        """Create a node stamped with the current call-splice depth."""
        return self.cfg.new_node(kind, call_depth=self._call_depth, **fields)

    def _connect(self, pending: List[PendingEdge], target: CFGNode) -> None:
        for node, label in pending:
            self.cfg.add_edge(node, target, label)

    def _build_statements(
        self, statements: List[Stmt], pending: List[PendingEdge]
    ) -> List[PendingEdge]:
        for stmt in statements:
            if not pending:
                # Unreachable code after a return; still build nodes so that the
                # diff analysis can see them, but they stay disconnected from
                # the incoming flow (and well-formedness will reject them).
                break
            pending = self._build_statement(stmt, pending)
        return pending

    def _build_statement(self, stmt: Stmt, pending: List[PendingEdge]) -> List[PendingEdge]:
        if isinstance(stmt, (Assign, VarDecl)):
            return self._build_write(stmt, pending)
        if isinstance(stmt, CallStmt):
            return self._build_call(stmt, pending)
        if isinstance(stmt, If):
            return self._build_if(stmt, pending)
        if isinstance(stmt, While):
            return self._build_while(stmt, pending)
        if isinstance(stmt, Assert):
            return self._build_assert(stmt, pending)
        if isinstance(stmt, Return):
            return self._build_return(stmt, pending)
        if isinstance(stmt, Skip):
            node = self._new_node(NodeKind.NOP, line=stmt.line, label="skip", stmt=stmt)
            self._connect(pending, node)
            return [(node, FALLTHROUGH_EDGE)]
        raise TypeError(f"Cannot lower statement of type {type(stmt).__name__}")

    def _build_write(self, stmt: Stmt, pending: List[PendingEdge]) -> List[PendingEdge]:
        if isinstance(stmt, Assign):
            target, expr = stmt.name, stmt.value
        else:
            assert isinstance(stmt, VarDecl)
            target = stmt.name
            if stmt.init is not None:
                expr = stmt.init
            elif stmt.type_name == "bool":
                expr = BoolLiteral(False, line=stmt.line)
            else:
                expr = IntLiteral(0, line=stmt.line)
        node = self._new_node(
            NodeKind.ASSIGN,
            line=stmt.line,
            label=f"{target} = {expr}",
            stmt=stmt,
            target=target,
            expr=expr,
        )
        self._connect(pending, node)
        return [(node, FALLTHROUGH_EDGE)]

    def _build_if(self, stmt: If, pending: List[PendingEdge]) -> List[PendingEdge]:
        branch = self._new_node(
            NodeKind.BRANCH,
            line=stmt.line,
            label=str(stmt.condition),
            stmt=stmt,
            condition=stmt.condition,
        )
        self._connect(pending, branch)
        then_pending = self._build_statements(stmt.then_body, [(branch, TRUE_EDGE)])
        else_pending = self._build_statements(stmt.else_body, [(branch, FALSE_EDGE)])
        return then_pending + else_pending

    def _build_while(self, stmt: While, pending: List[PendingEdge]) -> List[PendingEdge]:
        branch = self._new_node(
            NodeKind.BRANCH,
            line=stmt.line,
            label=str(stmt.condition),
            stmt=stmt,
            condition=stmt.condition,
        )
        self._connect(pending, branch)
        body_pending = self._build_statements(stmt.body, [(branch, TRUE_EDGE)])
        self._connect(body_pending, branch)
        return [(branch, FALSE_EDGE)]

    def _build_assert(self, stmt: Assert, pending: List[PendingEdge]) -> List[PendingEdge]:
        branch = self._new_node(
            NodeKind.BRANCH,
            line=stmt.line,
            label=f"assert {stmt.condition}",
            stmt=stmt,
            condition=stmt.condition,
        )
        self._connect(pending, branch)
        error = self._new_node(
            NodeKind.ERROR,
            line=stmt.line,
            label="assertion failure",
            stmt=stmt,
        )
        self.cfg.add_edge(branch, error, FALSE_EDGE)
        self._deferred_error_edges.append((error, FALLTHROUGH_EDGE))
        return [(branch, TRUE_EDGE)]

    def _build_return(self, stmt: Return, pending: List[PendingEdge]) -> List[PendingEdge]:
        if stmt.value is not None:
            node = self._new_node(
                NodeKind.ASSIGN,
                line=stmt.line,
                label=f"{RETURN_VARIABLE} = {stmt.value}",
                stmt=stmt,
                target=RETURN_VARIABLE,
                expr=stmt.value,
            )
        else:
            node = self._new_node(NodeKind.NOP, line=stmt.line, label="return", stmt=stmt)
        self._connect(pending, node)
        self._deferred_exit_edges.append((node, FALLTHROUGH_EDGE))
        return []

    # -- interprocedural splicing --------------------------------------------

    def _callee_digests(self) -> Dict[str, str]:
        if self._digests is None:
            from repro.cfg.callgraph import procedure_digests  # import cycle guard

            self._digests = procedure_digests(self.program)
        return self._digests

    def _build_call(self, stmt: CallStmt, pending: List[PendingEdge]) -> List[PendingEdge]:
        """Lower ``[y =] f(args);`` to CALL -> spliced body -> CALL_RETURN."""
        if self.program is None:
            raise ValueError(
                f"Cannot lower call to {stmt.callee!r}: build the CFG from the "
                f"Program (build_cfg(program, procedure_name)) so callees resolve"
            )
        if stmt.callee in self._splice_stack or stmt.callee == self.procedure.name:
            chain = " -> ".join(self._splice_stack + [stmt.callee])
            raise ValueError(f"Recursive call cycle ({chain}) cannot be flattened")
        try:
            callee = self.program.procedure(stmt.callee)
        except KeyError:
            raise ValueError(
                f"Call to undefined procedure {stmt.callee!r} (line {stmt.line})"
            ) from None
        if len(stmt.args) != len(callee.params):
            raise ValueError(
                f"Procedure {stmt.callee!r} takes {len(callee.params)} argument(s), "
                f"got {len(stmt.args)} (line {stmt.line})"
            )

        params = tuple(callee.param_names())
        scope = list(params)
        for name in callee.local_names() + [RETURN_VARIABLE]:
            if name not in scope:
                scope.append(name)
        scope_names = tuple(scope)
        digest = self._callee_digests()[stmt.callee]
        args_text = ", ".join(str(arg) for arg in stmt.args)

        call_node = self._new_node(
            NodeKind.CALL,
            line=stmt.line,
            label=f"call {stmt.callee}({args_text})",
            stmt=stmt,
            callee=stmt.callee,
            call_args=tuple(stmt.args),
            call_params=params,
            scope_names=scope_names,
            callee_digest=digest,
        )
        self._connect(pending, call_node)

        # Splice the callee body: its returns flow to the CALL_RETURN node,
        # its assertion failures keep flowing to the flattened exit.
        outer_exits = self._deferred_exit_edges
        self._deferred_exit_edges = []
        self._splice_stack.append(stmt.callee)
        self._call_depth += 1
        body_pending = self._build_statements(callee.body, [(call_node, FALLTHROUGH_EDGE)])
        self._call_depth -= 1
        self._splice_stack.pop()
        callee_exits = self._deferred_exit_edges
        self._deferred_exit_edges = outer_exits

        return_label = f"{stmt.target} = ret {stmt.callee}" if stmt.target else f"ret {stmt.callee}"
        return_node = self._new_node(
            NodeKind.CALL_RETURN,
            line=stmt.line,
            label=return_label,
            stmt=stmt,
            target=stmt.target,
            callee=stmt.callee,
            scope_names=scope_names,
            call_node_id=call_node.node_id,
            callee_digest=digest,
        )
        call_node.return_node_id = return_node.node_id
        self._connect(body_pending + callee_exits, return_node)
        return [(return_node, FALLTHROUGH_EDGE)]


def build_cfg(procedure_or_program, procedure_name: Optional[str] = None) -> ControlFlowGraph:
    """Build the (flattened, call-spliced) CFG of a procedure.

    Args:
        procedure_or_program: either a :class:`Procedure` or a :class:`Program`.
            A program is required for procedures containing calls, so the
            callee bodies can be spliced in.
        procedure_name: when a program is given, the entry procedure to lower
            (defaults to the first procedure in the program).

    Returns:
        The control flow graph of the selected procedure.  It is memoised on
        ``procedure_or_program``, keyed by procedure name, so every caller
        holding one parse gets the same graph, and the graph lives as long
        as the parse.  Callers never mutate it.

    Raises:
        KeyError: when ``procedure_name`` names no procedure of the program.
        ValueError: for empty programs, unresolvable calls or recursion.
    """
    program: Optional[Program] = None
    if isinstance(procedure_or_program, Program):
        program = procedure_or_program
        if procedure_name is None:
            if not program.procedures:
                raise ValueError("Program contains no procedures")
            procedure = program.procedures[0]
        else:
            procedure = program.procedure(procedure_name)
    elif isinstance(procedure_or_program, Procedure):
        procedure = procedure_or_program
    else:
        raise TypeError("build_cfg expects a Procedure or a Program")
    built = procedure_or_program.__dict__.setdefault("_cfgs", {})
    cfg = built.get(procedure.name)
    if cfg is None:
        cfg = built[procedure.name] = CFGBuilder(procedure, program).build()
    return cfg
