"""Structural (AST) differencing of two procedure versions.

This is the "lightweight differential analysis" of the paper (§3.1): it
compares the base and modified versions of a procedure and classifies every
statement as *unchanged*, *changed*, *added* (only in the modified version) or
*removed* (only in the base version).  The classification is then mapped onto
CFG nodes by :mod:`repro.diff.diff_map`.

The algorithm aligns statement lists recursively:

1. exact matches (identical subtrees) are found with a longest-common-
   subsequence pass over deep structural keys;
2. the unmatched gaps between exact matches are paired up by statement kind
   (and by assignment target where possible); paired statements are *changed*
   (for ``if``/``while`` the bodies are diffed recursively, so an unchanged
   condition guarding a changed body stays *unchanged*);
3. anything left unpaired is *removed* (base) or *added* (modified).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.ast_nodes import (
    Assert,
    Assign,
    CallStmt,
    If,
    Procedure,
    Program,
    Return,
    Skip,
    Stmt,
    VarDecl,
    While,
)


class ChangeKind(Enum):
    """Classification of a statement or CFG node with respect to the other version."""

    UNCHANGED = "unchanged"
    CHANGED = "changed"
    ADDED = "added"
    REMOVED = "removed"


@dataclass
class ProcedureDiff:
    """The result of diffing two versions of a procedure."""

    base: Procedure
    modified: Procedure
    unchanged_pairs: List[Tuple[Stmt, Stmt]] = field(default_factory=list)
    changed_pairs: List[Tuple[Stmt, Stmt]] = field(default_factory=list)
    added: List[Stmt] = field(default_factory=list)
    removed: List[Stmt] = field(default_factory=list)

    # -- queries -------------------------------------------------------------

    def modified_statement_kind(self, stmt: Stmt) -> ChangeKind:
        """Classification of a statement belonging to the modified version."""
        for _, mod_stmt in self.unchanged_pairs:
            if mod_stmt is stmt:
                return ChangeKind.UNCHANGED
        for _, mod_stmt in self.changed_pairs:
            if mod_stmt is stmt:
                return ChangeKind.CHANGED
        for mod_stmt in self.added:
            if mod_stmt is stmt:
                return ChangeKind.ADDED
        return ChangeKind.UNCHANGED

    def base_statement_kind(self, stmt: Stmt) -> ChangeKind:
        """Classification of a statement belonging to the base version."""
        for base_stmt, _ in self.unchanged_pairs:
            if base_stmt is stmt:
                return ChangeKind.UNCHANGED
        for base_stmt, _ in self.changed_pairs:
            if base_stmt is stmt:
                return ChangeKind.CHANGED
        for base_stmt in self.removed:
            if base_stmt is stmt:
                return ChangeKind.REMOVED
        return ChangeKind.UNCHANGED

    def has_changes(self) -> bool:
        return bool(self.changed_pairs or self.added or self.removed)

    def summary(self) -> str:
        return (
            f"diff({self.base.name}): {len(self.changed_pairs)} changed, "
            f"{len(self.added)} added, {len(self.removed)} removed, "
            f"{len(self.unchanged_pairs)} unchanged"
        )


def diff_procedures(base: Procedure, modified: Procedure) -> ProcedureDiff:
    """Diff two versions of (what is assumed to be) the same procedure."""
    result = ProcedureDiff(base=base, modified=modified)
    _diff_statement_lists(base.body, modified.body, result)
    return result


@dataclass
class ProgramDiff:
    """The result of diffing two versions of a whole program.

    Procedures are matched by name: a pair present in both versions is
    diffed statement-by-statement, a procedure only in the base version is
    *removed* and one only in the modified version is *added*.
    """

    base: Program
    modified: Program
    #: procedure name -> statement-level diff, for procedures in both versions.
    procedure_diffs: Dict[str, ProcedureDiff] = field(default_factory=dict)
    added_procedures: List[Procedure] = field(default_factory=list)
    removed_procedures: List[Procedure] = field(default_factory=list)

    def changed_procedure_names(self) -> List[str]:
        """Names of matched procedures whose statements changed."""
        return [
            name for name, diff in self.procedure_diffs.items() if diff.has_changes()
        ]

    def has_changes(self) -> bool:
        return bool(
            self.added_procedures
            or self.removed_procedures
            or self.changed_procedure_names()
        )

    def summary(self) -> str:
        return (
            f"diff(program): {len(self.changed_procedure_names())} changed, "
            f"{len(self.added_procedures)} added, "
            f"{len(self.removed_procedures)} removed procedure(s)"
        )


def diff_program(base: Program, modified: Program) -> ProgramDiff:
    """Diff every procedure of two program versions (matched by name)."""
    result = ProgramDiff(base=base, modified=modified)
    modified_by_name = {proc.name: proc for proc in modified.procedures}
    matched = set()
    for base_proc in base.procedures:
        mod_proc = modified_by_name.get(base_proc.name)
        if mod_proc is None:
            result.removed_procedures.append(base_proc)
            continue
        matched.add(base_proc.name)
        result.procedure_diffs[base_proc.name] = diff_procedures(base_proc, mod_proc)
    for mod_proc in modified.procedures:
        if mod_proc.name not in matched:
            result.added_procedures.append(mod_proc)
    return result


# ---------------------------------------------------------------------------
# alignment machinery
# ---------------------------------------------------------------------------


def _diff_statement_lists(
    base_stmts: Sequence[Stmt], mod_stmts: Sequence[Stmt], result: ProcedureDiff
) -> None:
    matches = _lcs_matches(base_stmts, mod_stmts)
    base_index = 0
    mod_index = 0
    for match_base, match_mod in matches + [(len(base_stmts), len(mod_stmts))]:
        gap_base = list(base_stmts[base_index:match_base])
        gap_mod = list(mod_stmts[mod_index:match_mod])
        _diff_gap(gap_base, gap_mod, result)
        if match_base < len(base_stmts) and match_mod < len(mod_stmts):
            _record_identical(base_stmts[match_base], mod_stmts[match_mod], result)
        base_index = match_base + 1
        mod_index = match_mod + 1


def _lcs_matches(
    base_stmts: Sequence[Stmt], mod_stmts: Sequence[Stmt]
) -> List[Tuple[int, int]]:
    """Indices of exactly-matching statements (longest common subsequence)."""
    base_keys = [stmt.structural_key() for stmt in base_stmts]
    mod_keys = [stmt.structural_key() for stmt in mod_stmts]
    rows = len(base_keys) + 1
    cols = len(mod_keys) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(len(base_keys) - 1, -1, -1):
        for j in range(len(mod_keys) - 1, -1, -1):
            if base_keys[i] == mod_keys[j]:
                table[i][j] = table[i + 1][j + 1] + 1
            else:
                table[i][j] = max(table[i + 1][j], table[i][j + 1])
    matches: List[Tuple[int, int]] = []
    i = j = 0
    while i < len(base_keys) and j < len(mod_keys):
        if base_keys[i] == mod_keys[j]:
            matches.append((i, j))
            i += 1
            j += 1
        elif table[i + 1][j] >= table[i][j + 1]:
            i += 1
        else:
            j += 1
    return matches


def _record_identical(base_stmt: Stmt, mod_stmt: Stmt, result: ProcedureDiff) -> None:
    """Record an identical subtree: every nested statement pair is unchanged."""
    result.unchanged_pairs.append((base_stmt, mod_stmt))
    if isinstance(base_stmt, If) and isinstance(mod_stmt, If):
        for b, m in zip(base_stmt.then_body, mod_stmt.then_body):
            _record_identical(b, m, result)
        for b, m in zip(base_stmt.else_body, mod_stmt.else_body):
            _record_identical(b, m, result)
    elif isinstance(base_stmt, While) and isinstance(mod_stmt, While):
        for b, m in zip(base_stmt.body, mod_stmt.body):
            _record_identical(b, m, result)


def _diff_gap(gap_base: List[Stmt], gap_mod: List[Stmt], result: ProcedureDiff) -> None:
    """Pair up non-identical statements between two exact matches."""
    unmatched_mod = list(gap_mod)
    for base_stmt in gap_base:
        partner = _find_partner(base_stmt, unmatched_mod)
        if partner is None:
            _record_removed(base_stmt, result)
            continue
        unmatched_mod.remove(partner)
        _diff_pair(base_stmt, partner, result)
    for mod_stmt in unmatched_mod:
        _record_added(mod_stmt, result)


def _find_partner(base_stmt: Stmt, candidates: List[Stmt]) -> Optional[Stmt]:
    """The best modified-side counterpart for a base statement, if any."""
    same_kind = [c for c in candidates if _same_kind(base_stmt, c)]
    if not same_kind:
        return None
    # Prefer a statement with the same assignment target / declared name.
    target = _target_name(base_stmt)
    if target is not None:
        for candidate in same_kind:
            if _target_name(candidate) == target:
                return candidate
    return same_kind[0]


def _same_kind(first: Stmt, second: Stmt) -> bool:
    if isinstance(first, (Assign, VarDecl)) and isinstance(second, (Assign, VarDecl)):
        return True
    return type(first) is type(second)


def _target_name(stmt: Stmt) -> Optional[str]:
    if isinstance(stmt, Assign):
        return stmt.name
    if isinstance(stmt, VarDecl):
        return stmt.name
    if isinstance(stmt, CallStmt):
        return stmt.target
    return None


def _diff_pair(base_stmt: Stmt, mod_stmt: Stmt, result: ProcedureDiff) -> None:
    """Diff two statements that have been paired up by the gap matcher."""
    if isinstance(base_stmt, If) and isinstance(mod_stmt, If):
        condition_changed = (
            base_stmt.condition.structural_key() != mod_stmt.condition.structural_key()
        )
        pair = (base_stmt, mod_stmt)
        if condition_changed:
            result.changed_pairs.append(pair)
        else:
            result.unchanged_pairs.append(pair)
        _diff_statement_lists(base_stmt.then_body, mod_stmt.then_body, result)
        _diff_statement_lists(base_stmt.else_body, mod_stmt.else_body, result)
        return
    if isinstance(base_stmt, While) and isinstance(mod_stmt, While):
        condition_changed = (
            base_stmt.condition.structural_key() != mod_stmt.condition.structural_key()
        )
        pair = (base_stmt, mod_stmt)
        if condition_changed:
            result.changed_pairs.append(pair)
        else:
            result.unchanged_pairs.append(pair)
        _diff_statement_lists(base_stmt.body, mod_stmt.body, result)
        return
    if base_stmt.structural_key() == mod_stmt.structural_key():
        result.unchanged_pairs.append((base_stmt, mod_stmt))
    else:
        result.changed_pairs.append((base_stmt, mod_stmt))


def _record_removed(stmt: Stmt, result: ProcedureDiff) -> None:
    result.removed.append(stmt)
    for nested in _nested_statements(stmt):
        result.removed.append(nested)


def _record_added(stmt: Stmt, result: ProcedureDiff) -> None:
    result.added.append(stmt)
    for nested in _nested_statements(stmt):
        result.added.append(nested)


def _nested_statements(stmt: Stmt) -> List[Stmt]:
    nested: List[Stmt] = []
    if isinstance(stmt, If):
        for child in stmt.then_body + stmt.else_body:
            nested.append(child)
            nested.extend(_nested_statements(child))
    elif isinstance(stmt, While):
        for child in stmt.body:
            nested.append(child)
            nested.extend(_nested_statements(child))
    return nested
