"""Intermediate representation: the node vocabulary of MiniLang CFGs.

The DiSE static analysis (paper Definitions 3.3-3.7) is phrased over two node
classes: conditional branch nodes (``Cond``) and write nodes (``Write``).
The CFG builder lowers MiniLang statements onto exactly those classes plus a
few structural nodes (begin/end/nop/error).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Callable, Optional, Tuple

from repro.lang.ast_nodes import Expr, Stmt


class NodeKind(Enum):
    """The kind of a CFG node."""

    BEGIN = auto()   # synthetic procedure entry
    END = auto()     # synthetic procedure exit
    ASSIGN = auto()  # a write instruction (Definition 3.5)
    BRANCH = auto()  # a conditional branch instruction (Definition 3.4)
    NOP = auto()     # skip / declarations without initialisers / return without effect
    ERROR = auto()   # target of a failed assertion (de-sugared ``assert``)
    CALL = auto()         # call entry: evaluates args, pushes a call frame
    CALL_RETURN = auto()  # call exit: pops the frame, binds the return value


@dataclass
class CFGNode:
    """A single node of a control flow graph.

    Attributes:
        node_id: unique integer identifier within the owning CFG; the paper's
            ``n0``, ``n1``, ... labels correspond to these identifiers.
        kind: the node's :class:`NodeKind`.
        line: source line of the originating statement (0 for synthetic nodes).
        label: human-readable description used in traces, tables and DOT output.
        stmt: the originating AST statement, if any.
        condition: for ``BRANCH`` nodes, the branch predicate expression.
        target: for ``ASSIGN`` nodes, the variable being defined; for
            ``CALL_RETURN`` nodes, the variable receiving the return value
            (``None`` for bare calls).
        expr: for ``ASSIGN`` nodes, the right-hand side expression.
        callee: for ``CALL``/``CALL_RETURN`` nodes, the called procedure.
        call_args: for ``CALL`` nodes, the argument expressions (evaluated in
            the caller's scope before the frame is pushed).
        call_params: for ``CALL`` nodes, the callee's formal parameter names
            (bound, in order, to the evaluated arguments).
        scope_names: for ``CALL``/``CALL_RETURN`` nodes, every name the
            callee's scope can bind (params, locals and the synthetic return
            variable).  The engine switches scope wholesale (the call frame
            saves every non-global caller binding, see
            :class:`repro.symexec.state.CallFrame`); ``scope_names`` is what
            the feasibility lookahead's walk -- which models the switch
            in-place -- saves at the call and poisons at an unmatched
            return.
        return_node_id: for ``CALL`` nodes, the matching ``CALL_RETURN``.
        call_node_id: for ``CALL_RETURN`` nodes, the matching ``CALL``.
        callee_digest: for ``CALL``/``CALL_RETURN`` nodes, the transitive
            content hash of the callee (name-independent), so region digests
            are stable under callee renames-without-edit and change exactly
            when the callee's IR changes.
        call_depth: call-splice nesting level of the node in a flattened
            interprocedural CFG (0 for the entry procedure's own nodes).
        lowered_expr, lowered_condition, lowered_args: ``expr``,
            ``condition`` and ``call_args`` lowered into closures from an
            environment to the simplified term
            (:func:`repro.symexec.evaluator.lower_expression`), set when
            :meth:`~repro.cfg.graph.ControlFlowGraph.new_node` builds the
            node.
    """

    node_id: int
    kind: NodeKind
    line: int = 0
    label: str = ""
    stmt: Optional[Stmt] = None
    condition: Optional[Expr] = None
    target: Optional[str] = None
    expr: Optional[Expr] = None
    callee: Optional[str] = None
    call_args: Tuple[Expr, ...] = ()
    call_params: Tuple[str, ...] = ()
    scope_names: Tuple[str, ...] = ()
    return_node_id: Optional[int] = None
    call_node_id: Optional[int] = None
    callee_digest: Optional[str] = None
    call_depth: int = 0
    lowered_expr: Optional[Callable] = field(default=None, repr=False, compare=False)
    lowered_condition: Optional[Callable] = field(default=None, repr=False, compare=False)
    lowered_args: Tuple[Callable, ...] = field(default=(), repr=False, compare=False)
    # Lazy memos: nodes are immutable after construction, and a CFG lives
    # through two version pairs (modified in one, base in the next), so each
    # node's reads and key are asked for several times: reads by the region
    # facts, ``DefUse`` and ``ControlFlowGraph.variables``, the key by the
    # region facts and by the differ once per pair.  The memos make every
    # ask after the first an attribute read instead of an AST walk.
    _used_vars: Optional[Tuple[str, ...]] = field(
        default=None, repr=False, compare=False
    )
    _structural_key: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def name(self) -> str:
        """The paper-style node name, e.g. ``n0``, ``n7``."""
        if self.kind is NodeKind.BEGIN:
            return "nbegin"
        if self.kind is NodeKind.END:
            return "nend"
        return f"n{self.node_id}"

    @property
    def is_branch(self) -> bool:
        """True if this node is a conditional branch instruction (Cond set)."""
        return self.kind is NodeKind.BRANCH

    @property
    def is_write(self) -> bool:
        """True if this node is a write instruction (Write set).

        ``CALL`` nodes define the callee's formals and ``CALL_RETURN`` nodes
        define the call target, so both participate in the write-node rules
        of the affected-location analysis.
        """
        if self.kind is NodeKind.CALL:
            return bool(self.call_params)
        if self.kind is NodeKind.CALL_RETURN:
            return self.target is not None
        return self.kind is NodeKind.ASSIGN

    def defined_variable(self) -> Optional[str]:
        """``Def(n)`` from Definition 3.6: the variable defined here, or None.

        ``CALL`` nodes define several variables at once (one per formal); use
        :meth:`defined_variables` to see all of them.
        """
        if self.kind in (NodeKind.ASSIGN, NodeKind.CALL_RETURN):
            return self.target
        return None

    def defined_variables(self) -> Tuple[str, ...]:
        """All variables defined at this node (generalises ``Def(n)``)."""
        if self.kind is NodeKind.CALL:
            return self.call_params
        defined = self.defined_variable()
        return (defined,) if defined is not None else ()

    def used_variables(self) -> Tuple[str, ...]:
        """``Use(n)`` from Definition 3.7: the variables read at this node."""
        if self._used_vars is None:
            object.__setattr__(self, "_used_vars", self._compute_used_variables())
        return self._used_vars

    def _compute_used_variables(self) -> Tuple[str, ...]:
        if self.kind is NodeKind.ASSIGN and self.expr is not None:
            return self.expr.variables()
        if self.kind is NodeKind.BRANCH and self.condition is not None:
            return self.condition.variables()
        if self.kind is NodeKind.CALL:
            seen = []
            for arg in self.call_args:
                for name in arg.variables():
                    if name not in seen:
                        seen.append(name)
            return tuple(seen)
        if self.kind is NodeKind.CALL_RETURN and self.target is not None:
            from repro.cfg.builder import RETURN_VARIABLE  # local import: no cycle at module load

            return (RETURN_VARIABLE,)
        return ()

    def structural_key(self) -> tuple:
        """A key describing the node's behaviour, used by the CFG differ.

        Call nodes key on the callee's *content digest* rather than its name,
        so renaming a procedure without editing it leaves every region digest
        that covers its call sites unchanged.
        """
        if self._structural_key is None:
            object.__setattr__(
                self, "_structural_key", self._compute_structural_key()
            )
        return self._structural_key

    def _compute_structural_key(self) -> tuple:
        if self.kind is NodeKind.ASSIGN:
            expr_key = self.expr.structural_key() if self.expr is not None else None
            return ("assign", self.target, expr_key)
        if self.kind is NodeKind.BRANCH:
            cond_key = self.condition.structural_key() if self.condition is not None else None
            return ("branch", cond_key)
        if self.kind is NodeKind.CALL:
            return (
                "call",
                self.callee_digest,
                tuple(arg.structural_key() for arg in self.call_args),
            )
        if self.kind is NodeKind.CALL_RETURN:
            return ("call_return", self.target, self.callee_digest)
        return (self.kind.name.lower(),)

    def __str__(self) -> str:
        return f"{self.name}: {self.label}" if self.label else self.name

    def __hash__(self) -> int:
        return hash((id(self.__class__), self.node_id))


#: Edge labels used on outgoing edges of BRANCH nodes.
TRUE_EDGE = "true"
FALSE_EDGE = "false"
#: Edge label used on all other edges.
FALLTHROUGH_EDGE = ""


@dataclass(frozen=True)
class CFGEdge:
    """A directed, labelled edge between two CFG nodes."""

    source: int
    target: int
    label: str = FALLTHROUGH_EDGE

    def __str__(self) -> str:
        suffix = f" [{self.label}]" if self.label else ""
        return f"n{self.source} -> n{self.target}{suffix}"
