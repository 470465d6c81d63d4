"""Symbolic program states and path conditions.

A symbolic state (paper §2.1) contains a program location (a CFG node), a
symbolic value for every program variable, and the path condition collected
along the path that reached the state.

:class:`SymbolicState` and :class:`PathCondition` are immutable slotted
values: equal fields make equal, equally hashed objects, and assigning an
attribute raises.  The engine builds one state per visited CFG node, so a
state is kept to one small object; the ``with_*`` helpers build a successor
that shares every unchanged field with its parent.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.cfg.ir import CFGNode
from repro.solver.simplify import simplify
from repro.solver.terms import Assignment, Term

#: A symbolic environment: ``(name, term)`` bindings sorted by name.
Bindings = Tuple[Tuple[str, Term], ...]


def bound_term(environment: Bindings, name: str) -> Optional[Term]:
    """The term ``environment`` binds ``name`` to, found by bisection, or None."""
    index = bisect_left(environment, (name,))
    if index < len(environment) and environment[index][0] == name:
        return environment[index][1]
    return None


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


def _frozen(cls, *names):
    """Raise on assignment to ``cls``'s instances; returns setters for ``names``.

    The setters are the slots' own descriptors: they fill a slot past the
    raising ``__setattr__``.
    """

    def refuse(self, name, value):
        raise AttributeError(f"{cls.__name__} is immutable: cannot assign {name!r}")

    def refuse_delete(self, name):
        raise AttributeError(f"{cls.__name__} is immutable: cannot delete {name!r}")

    cls.__setattr__ = refuse
    cls.__delattr__ = refuse_delete
    return tuple(getattr(cls, name).__set__ for name in names)


class PathCondition:
    """An immutable conjunction of constraints over the symbolic inputs.

    A value: equality and hashing see ``constraints`` only, and assigning an
    attribute raises.
    """

    __slots__ = ("constraints",)

    def __init__(self, constraints: Tuple[Term, ...] = ()):
        _set_constraints(self, constraints)

    def extend(self, constraint: Term) -> "PathCondition":
        """Return a new path condition with ``constraint`` appended."""
        return PathCondition(self.constraints + (simplify(constraint),))

    def holds(self, assignment: Assignment) -> bool:
        """Evaluate the path condition under a concrete assignment."""
        return all(bool(term.evaluate(assignment)) for term in self.constraints)

    def __eq__(self, other):
        if other.__class__ is not PathCondition:
            return NotImplemented
        return self.constraints == other.constraints

    def __hash__(self) -> int:
        return hash(self.constraints)

    def __reduce__(self):
        return PathCondition, (self.constraints,)

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def __repr__(self) -> str:
        return f"PathCondition(constraints={self.constraints!r})"

    def __str__(self) -> str:
        if not self.constraints:
            return "true"
        return " && ".join(str(term) for term in self.constraints)


(_set_constraints,) = _frozen(PathCondition, "constraints")

#: The empty path condition (``true``), shared by every state that has none.
TRUE_CONDITION = PathCondition()


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


class _StateSlots:
    """:class:`SymbolicState`'s slots, without its guard against assignment."""

    __slots__ = ("node", "environment", "path_condition", "trace", "frames", "_env_map")


class SymbolicState(_StateSlots):
    """A symbolic execution state: location + symbolic environment + PC.

    A value of five fields: ``node``, ``environment``, ``path_condition``,
    ``trace`` and ``frames``.  Equality and hashing see exactly those, and
    assigning an attribute raises.  The class is slotted, so a state is one
    small object: the engine builds one per visited node, and most visited
    nodes are straight-line steps.

    The environment is a tuple of ``(name, term)`` bindings sorted by name
    (hashable, cheap to share across the immutable state chain).  Bindings
    are shared, not rebuilt: a successor state, a call frame, a path record
    and a replayed environment hold the very pair objects of every binding
    that did not change, and only a changed binding is a new pair
    (:func:`replace_binding`, :func:`merge_bindings`).  The dictionary view
    the lowered evaluator reads (on an engine memo miss, and in the
    lookahead) is built on the first :meth:`env_map` call and kept (states
    never change, so it can never go stale); a state nobody reads the
    environment of builds none.

    ``trace`` holds the node ids of the path so far, this state's node
    last.  ``frames`` is the call stack: empty while executing the entry
    procedure's own nodes, one :class:`CallFrame` per active spliced call
    while inside a callee's nodes.
    """

    __slots__ = ()

    def __new__(
        cls,
        node: CFGNode,
        environment: Bindings,
        path_condition: PathCondition = TRUE_CONDITION,
        trace: Tuple[int, ...] = (),
        frames: Tuple[CallFrame, ...] = (),
    ):
        # Built unguarded, with plain slot stores, then made a state: one
        # ``__class__`` store costs less than a descriptor call per slot
        # (0.46 against 0.65 µs per state on a 2-vCPU x86-64 container).
        self = object.__new__(_StateSlots)
        self.node = node
        self.environment = environment
        self.path_condition = path_condition
        self.trace = trace
        self.frames = frames
        self._env_map = None
        self.__class__ = cls
        return self

    @staticmethod
    def make(
        node: CFGNode,
        environment: Dict[str, Term],
        path_condition: Optional[PathCondition] = None,
        trace: Tuple[int, ...] = (),
        frames: Tuple[CallFrame, ...] = (),
    ) -> "SymbolicState":
        return SymbolicState(
            node,
            tuple(sorted(environment.items())),
            path_condition or TRUE_CONDITION,
            trace,
            frames,
        )

    def _fields(self) -> tuple:
        return (self.node, self.environment, self.path_condition, self.trace, self.frames)

    def __eq__(self, other):
        if other.__class__ is not SymbolicState:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return SymbolicState, self._fields()

    def __repr__(self) -> str:
        return (
            f"SymbolicState(node={self.node!r}, environment={self.environment!r}, "
            f"path_condition={self.path_condition!r}, trace={self.trace!r}, "
            f"frames={self.frames!r})"
        )

    @property
    def depth(self) -> int:
        """Branch decisions on the path: each appends one constraint."""
        return len(self.path_condition.constraints)

    def env_map(self) -> Mapping[str, Term]:
        """The symbolic environment as a read-only mapping (built once, on first use)."""
        cached = self._env_map
        if cached is None:
            cached = MappingProxyType(dict(self.environment))
            _set_env_map(self, cached)
        return cached

    def env_dict(self) -> Dict[str, Term]:
        """The symbolic environment as a fresh mutable dictionary."""
        return dict(self.env_map())

    def with_node(self, node: CFGNode) -> "SymbolicState":
        return SymbolicState(
            node, self.environment, self.path_condition, self.trace + (node.node_id,), self.frames
        )

    def with_assignment(self, node: CFGNode, name: str, value: Term) -> "SymbolicState":
        return SymbolicState(
            node,
            replace_binding(self.environment, (name, value)),
            self.path_condition,
            self.trace + (node.node_id,),
            self.frames,
        )

    def with_constraint(self, node: CFGNode, constraint: Term) -> "SymbolicState":
        return SymbolicState(
            node,
            self.environment,
            self.path_condition.extend(constraint),
            self.trace + (node.node_id,),
            self.frames,
        )

    def with_call(
        self, node: CFGNode, environment: Bindings, frame: CallFrame
    ) -> "SymbolicState":
        """Enter a callee: push ``frame`` and switch to the callee-scope env."""
        return SymbolicState(
            node,
            environment,
            self.path_condition,
            self.trace + (node.node_id,),
            self.frames + (frame,),
        )

    def with_return(self, node: CFGNode, environment: Bindings) -> "SymbolicState":
        """Leave a callee: pop the innermost frame, restore caller scope."""
        return SymbolicState(
            node, environment, self.path_condition, self.trace + (node.node_id,), self.frames[:-1]
        )

    def describe(self) -> str:
        env = ", ".join(f"{name}: {value}" for name, value in self.environment)
        return f"Loc: {self.node.name}\n{env}\nPC: {self.path_condition}"

    def __str__(self) -> str:
        return f"<state at {self.node.name} depth={self.depth} PC={self.path_condition}>"


(_set_env_map,) = _frozen(SymbolicState, "_env_map")
