"""Reference outputs every benchmark run is checked against.

``reference.json`` holds, for each artifact, the distinct path-condition
count and the distinct error path-condition count of

* the DiSE leg of every ordered ``(base, modified)`` version pair any seed
  can produce (the recorded base followed by any version, or any two
  distinct non-base versions), under key ``artifact|base|modified``;
* the full symbolic-execution leg of every version, under ``artifact|version``.

Both are produced by cold plain runs: a fresh ``ConstraintSolver`` per run,
no summary cache, no store, one process.  Regenerate with::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from histories import artifacts, import_program, pair_key, version_key  # noqa: E402

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def output_counts(summary) -> List[int]:
    """``[distinct PCs, distinct error PCs]`` of a ``MethodSummary``.

    Computed from the records directly (not through
    ``MethodSummary.distinct_path_conditions``) so that checking a run never
    shows up in the traced ledger as program work.
    """
    distinct = set()
    errors = set()
    for record in summary.records:
        text = str(record.path_condition)
        distinct.add(text)
        if record.is_error:
            errors.add(text)
    return [len(distinct), len(errors)]


def load() -> Dict[str, Dict[str, List[int]]]:
    with open(PATH) as handle:
        return json.load(handle)


def generate() -> Dict[str, Dict[str, List[int]]]:
    import_program()
    from repro.core.dise import DiSE
    from repro.lang.parser import parse_program
    from repro.solver.core import ConstraintSolver
    from repro.symexec.engine import symbolic_execute

    def checked(statistics, what: str) -> None:
        if statistics.completeness != "complete":
            raise RuntimeError(f"{what} ended {statistics.completeness}")

    dise: Dict[str, List[int]] = {}
    full: Dict[str, List[int]] = {}
    for artifact in artifacts():
        started = time.perf_counter()
        history = artifact.history()
        programs = {name: parse_program(source) for name, _, _, source in history}
        names = [name for name, _, _, _ in history]
        for name in names:
            result = symbolic_execute(
                programs[name], procedure_name=artifact.procedure_name, solver=ConstraintSolver()
            )
            checked(result.statistics, f"{artifact.name} {name} full")
            full[version_key(artifact.name, name)] = output_counts(result.summary)
        for base in names:
            for modified in names[1:]:
                if base == modified:
                    continue
                result = DiSE(
                    programs[base],
                    programs[modified],
                    procedure_name=artifact.procedure_name,
                    solver=ConstraintSolver(),
                ).run()
                checked(result.execution.statistics, f"{artifact.name} {base}->{modified} DiSE")
                dise[pair_key(artifact.name, base, modified)] = output_counts(
                    result.execution.summary
                )
        print(
            f"{artifact.name}: {len(names)} versions in {time.perf_counter() - started:.1f} s",
            file=sys.stderr,
        )
    return {"dise": dise, "full": full}


def main() -> None:
    reference = generate()
    sections = []
    for section in sorted(reference):
        rows = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value)}"
            for key, value in sorted(reference[section].items())
        )
        sections.append(f" {json.dumps(section)}: {{\n{rows}\n }}")
    with open(PATH + ".tmp", "w") as handle:
        handle.write("{\n" + ",\n".join(sections) + "\n}\n")
    os.replace(PATH + ".tmp", PATH)
    print(f"wrote {PATH}: {len(reference['dise'])} pairs, {len(reference['full'])} versions")


if __name__ == "__main__":
    main()
