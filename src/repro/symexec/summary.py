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
from repro.symexec.state import PathCondition


@dataclass(frozen=True)
class PathRecord:
    """One explored, completed execution path."""

    path_condition: PathCondition
    final_environment: Tuple[Tuple[str, Term], ...]
    trace: Tuple[int, ...]
    is_error: bool = False
    hit_depth_bound: bool = False

    def environment(self) -> Dict[str, Term]:
        return dict(self.final_environment)

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
