"""Symbolic summaries: the per-path results of a symbolic execution run.

A *symbolic summary* for a procedure is the set of path conditions describing
its feasible execution paths (paper §2.1).  Each record additionally keeps the
final symbolic environment and the node trace of the path, which the
evolution tasks (test generation, selection) and the trace tables use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.solver.terms import Term
from repro.symexec.state import Bindings, PathCondition, merge_bindings


class PathRecord:
    """One explored, completed execution path.

    A record holds its path condition, its final symbolic environment (a
    name-sorted bindings tuple), its node trace and whether it ended at an
    error node.  Native exploration builds it from all four.  A path replayed
    from the summary cache is built by :meth:`replayed`: its path condition
    and error flag are set at once, because dedup and the legs' counts read
    them, while ``final_environment`` and ``trace`` are derived from the
    replay root and the cached root-relative record the first time either
    is read, cached, and the source dropped.  Most replayed paths are never
    read beyond their path condition.  Equality, hashing and ``repr`` see
    the derived fields, so a replayed record equals a native one with the
    same fields.  Records are values: nothing assigns to one once built.
    """

    __slots__ = ("path_condition", "is_error", "_final_environment", "_trace", "_source")

    def __init__(
        self,
        path_condition: PathCondition,
        final_environment: Bindings,
        trace: Tuple[int, ...],
        is_error: bool = False,
    ):
        self.path_condition = path_condition
        self.is_error = is_error
        self._final_environment = final_environment
        self._trace = trace
        #: ``(root bindings, root trace, root-relative record, canonical
        #: node ids)`` while the record is underived, else ``None``.
        self._source: Optional[tuple] = None

    @classmethod
    def replayed(
        cls,
        path_condition: PathCondition,
        replay,
        root_environment: Bindings,
        root_trace: Tuple[int, ...],
        canonical_ids: Tuple[int, ...],
    ) -> "PathRecord":
        """A replayed path whose environment and trace are derived on first read.

        ``replay`` is the cached root-relative record (its ``writes``,
        ``removed``, canonical ``trace`` and ``is_error``); ``canonical_ids``
        maps the region's canonical indices to this CFG's node ids.  The source
        holds node ids, not nodes, so an underived record keeps no CFG alive.
        """
        record = cls(path_condition, None, None, replay.is_error)
        record._source = (root_environment, root_trace, replay, canonical_ids)
        return record

    def _derive(self) -> None:
        root_environment, root_trace, replay, canonical_ids = self._source
        self._final_environment = merge_bindings(root_environment, replay.writes, replay.removed)
        self._trace = root_trace + tuple([canonical_ids[index] for index in replay.trace])
        self._source = None

    @property
    def final_environment(self) -> Bindings:
        if self._source is not None:
            self._derive()
        return self._final_environment

    @property
    def trace(self) -> Tuple[int, ...]:
        if self._source is not None:
            self._derive()
        return self._trace

    def environment(self) -> Dict[str, Term]:
        return dict(self.final_environment)

    def _fields(self) -> tuple:
        return (self.path_condition, self.final_environment, self.trace, self.is_error)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"PathRecord(path_condition={self.path_condition!r}, "
            f"final_environment={self.final_environment!r}, trace={self.trace!r}, "
            f"is_error={self.is_error!r})"
        )

    def __str__(self) -> str:
        marker = " [error]" if self.is_error else ""
        return f"PC: {self.path_condition}{marker}"


@dataclass
class MethodSummary:
    """The collection of path records produced by one symbolic execution run."""

    procedure_name: str
    records: List[PathRecord] = field(default_factory=list)

    def add(self, record: PathRecord) -> None:
        self.records.append(record)

    @property
    def path_conditions(self) -> List[PathCondition]:
        return [record.path_condition for record in self.records]

    @property
    def error_records(self) -> List[PathRecord]:
        return [record for record in self.records if record.is_error]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def distinct_path_conditions(self) -> List[PathCondition]:
        """Path conditions with duplicates (same constraint terms) removed.

        Terms are hash-consed, so equal constraint tuples hold the same
        objects and the tuple itself is the dedup key.
        """
        seen = set()
        unique: List[PathCondition] = []
        for condition in self.path_conditions:
            key = condition.constraints
            if key not in seen:
                seen.add(key)
                unique.append(condition)
        return unique

    def describe(self, limit: Optional[int] = None) -> str:
        lines = [f"Summary for {self.procedure_name}: {len(self.records)} path conditions"]
        shown = self.records if limit is None else self.records[:limit]
        for index, record in enumerate(shown):
            lines.append(f"  [{index}] {record}")
        if limit is not None and len(self.records) > limit:
            lines.append(f"  ... {len(self.records) - limit} more")
        return "\n".join(lines)
