"""Symbolic program states and path conditions.

A symbolic state (paper §2.1) contains a program location (a CFG node), a
symbolic value for every program variable, and the path condition collected
along the path that reached the state.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.cfg.ir import CFGNode
from repro.solver.simplify import simplify
from repro.solver.terms import Assignment, Term, conjunction

#: A symbolic environment: ``(name, term)`` bindings sorted by name.
Bindings = Tuple[Tuple[str, Term], ...]


def replace_binding(environment: Bindings, binding: Tuple[str, Term]) -> Bindings:
    """``environment`` with ``binding`` in place of its name's binding.

    The name is found by bisection (``(name,)`` sorts just before every
    ``(name, term)`` pair and is never compared with a term); a new name is
    inserted in name order.  Every other pair object is kept, and so is the
    old pair when it already binds the same term.
    """
    name, term = binding
    index = bisect_left(environment, (name,))
    end = index
    if index < len(environment) and environment[index][0] == name:
        if environment[index][1] is term:
            return environment
        end += 1
    return environment[:index] + (binding,) + environment[end:]


def merge_bindings(
    root: Bindings, writes: Iterable[Tuple[str, Term]], removed: Iterable[str] = ()
) -> Bindings:
    """``root`` with ``writes`` bound over it and the ``removed`` names dropped.

    The same result as ``dict(root)``, updated with ``writes``, popped of
    ``removed`` and sorted, but built from the pair objects of ``root`` and
    ``writes`` rather than from new ones.
    """
    environment = root
    for binding in writes:
        environment = replace_binding(environment, binding)
    if removed:
        dropped = frozenset(removed)
        environment = tuple([binding for binding in environment if binding[0] not in dropped])
    return environment


@dataclass(frozen=True)
class PathCondition:
    """An immutable conjunction of constraints over the symbolic inputs."""

    constraints: Tuple[Term, ...] = ()

    def extend(self, constraint: Term) -> "PathCondition":
        """Return a new path condition with ``constraint`` appended."""
        return PathCondition(self.constraints + (simplify(constraint),))

    def as_term(self) -> Term:
        """The path condition as a single conjunction term."""
        return conjunction(self.constraints)

    def holds(self, assignment: Assignment) -> bool:
        """Evaluate the path condition under a concrete assignment."""
        return all(bool(term.evaluate(assignment)) for term in self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def __str__(self) -> str:
        if not self.constraints:
            return "true"
        return " && ".join(str(term) for term in self.constraints)


@dataclass(frozen=True)
class CallFrame:
    """One entry of a state's call stack (interprocedural execution).

    Pushed when execution enters a ``CALL`` node: ``saved`` holds every
    non-global binding of the caller's environment (the callee executes
    under ``globals ∪ formals`` only, so the whole caller scope is set
    aside).  Popped at the matching ``CALL_RETURN`` node, which rebuilds
    the caller environment from the current globals plus these bindings
    before assigning the return value to the call target.  ``None`` values
    stand for "no binding" and are skipped on restore.
    """

    callee: str
    saved: Tuple[Tuple[str, Optional[Term]], ...]


@dataclass(frozen=True)
class SymbolicState:
    """A symbolic execution state: location + symbolic environment + PC.

    The environment is a tuple of ``(name, term)`` bindings sorted by name
    (hashable, cheap to share across the immutable state chain).  Bindings
    are shared, not rebuilt: a successor state, a call frame, a path record
    and a replayed environment hold the very pair objects of every binding
    that did not change, and only a changed binding is a new pair
    (:func:`replace_binding`, :func:`merge_bindings`).  The dictionary view
    needed by the evaluator at every ASSIGN/BRANCH node is computed once per
    state and cached (states are frozen, so the cache can never go stale).

    ``frames`` is the call stack: empty while executing the entry
    procedure's own nodes, one :class:`CallFrame` per active spliced call
    while inside a callee's nodes.
    """

    node: CFGNode
    environment: Bindings
    path_condition: PathCondition = field(default_factory=PathCondition)
    trace: Tuple[int, ...] = ()
    frames: Tuple[CallFrame, ...] = ()

    @staticmethod
    def make(
        node: CFGNode,
        environment: Dict[str, Term],
        path_condition: Optional[PathCondition] = None,
        trace: Tuple[int, ...] = (),
        frames: Tuple[CallFrame, ...] = (),
    ) -> "SymbolicState":
        return SymbolicState(
            node=node,
            environment=tuple(sorted(environment.items())),
            path_condition=path_condition or PathCondition(),
            trace=trace,
            frames=frames,
        )

    @property
    def depth(self) -> int:
        """Branch decisions on the path: each appends one constraint."""
        return len(self.path_condition.constraints)

    def env_map(self) -> Mapping[str, Term]:
        """The symbolic environment as a read-only mapping (cached)."""
        cached = self.__dict__.get("_env_map")
        if cached is None:
            cached = MappingProxyType(dict(self.environment))
            object.__setattr__(self, "_env_map", cached)
        return cached

    def env_dict(self) -> Dict[str, Term]:
        """The symbolic environment as a fresh mutable dictionary."""
        return dict(self.env_map())

    def value_of(self, name: str) -> Term:
        """The symbolic value of variable ``name``."""
        env = self.env_map()
        if name not in env:
            raise KeyError(name)
        return env[name]

    def with_node(self, node: CFGNode) -> "SymbolicState":
        return SymbolicState(
            node=node,
            environment=self.environment,
            path_condition=self.path_condition,
            trace=self.trace + (node.node_id,),
            frames=self.frames,
        )

    def with_assignment(self, node: CFGNode, name: str, value: Term) -> "SymbolicState":
        return SymbolicState(
            node=node,
            environment=replace_binding(self.environment, (name, value)),
            path_condition=self.path_condition,
            trace=self.trace + (node.node_id,),
            frames=self.frames,
        )

    def with_constraint(self, node: CFGNode, constraint: Term) -> "SymbolicState":
        return SymbolicState(
            node=node,
            environment=self.environment,
            path_condition=self.path_condition.extend(constraint),
            trace=self.trace + (node.node_id,),
            frames=self.frames,
        )

    def with_call(
        self, node: CFGNode, environment: Bindings, frame: CallFrame
    ) -> "SymbolicState":
        """Enter a callee: push ``frame`` and switch to the callee-scope env."""
        return SymbolicState(
            node=node,
            environment=environment,
            path_condition=self.path_condition,
            trace=self.trace + (node.node_id,),
            frames=self.frames + (frame,),
        )

    def with_return(self, node: CFGNode, environment: Bindings) -> "SymbolicState":
        """Leave a callee: pop the innermost frame, restore caller scope."""
        return SymbolicState(
            node=node,
            environment=environment,
            path_condition=self.path_condition,
            trace=self.trace + (node.node_id,),
            frames=self.frames[:-1],
        )

    def describe(self) -> str:
        env = ", ".join(f"{name}: {value}" for name, value in self.environment)
        return f"Loc: {self.node.name}\n{env}\nPC: {self.path_condition}"

    def __str__(self) -> str:
        return f"<state at {self.node.name} depth={self.depth} PC={self.path_condition}>"
