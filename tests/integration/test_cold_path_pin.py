"""The cold path's solver answers, pinned byte for byte.

Every adjacent version pair of the WBS and ASW-CALLS histories runs cold, as
perfbench's pairs-cold workload does: a DiSE run of the pair and a full
symbolic execution of the modified version, each with a fresh solver.  Every
``SolverContext.check`` answer feeds one SHA-256 digest: the verdict, the
model, the context's ``current_domains()`` and the solver's
``worklist_rounds`` counter right after the answer.

``PINNED`` is the digest of the frame build that applied every delta through
the general worklist.  A change to how frames are built or probed must leave
every answer, box and round count as it was.  A change that means to move
them re-records the constant and says why.
"""

import hashlib

import pytest

from repro.artifacts import all_artifacts, interproc_artifacts
from repro.core.dise import DiSE
from repro.lang.parser import parse_program
from repro.solver.context import SolverContext
from repro.solver.core import ConstraintSolver
from repro.symexec.engine import symbolic_execute

PINNED = {
    "WBS": (896, "22123cbf3e19b05eba0436aada92dce2c33e41f878f03734e298fc5c91f4e5d6"),
    "ASW-CALLS": (1095, "360f938f9455fddf4c47e1ab6bbaa4839e33b7532af1109186b62fa0cb5d9f25"),
}


def cold_pairs_digest(artifact, monkeypatch):
    """Run ``artifact``'s adjacent pairs cold; digest every context answer."""
    digest = hashlib.sha256()
    answers = [0]
    check = SolverContext.check

    def recording_check(self, with_model=True):
        result = check(self, with_model)
        model = None if result.model is None else sorted(result.model.items())
        domains = sorted((name, box.low, box.high) for name, box in self.current_domains().items())
        rounds = self.solver.statistics.worklist_rounds
        digest.update(repr((result.satisfiable, model, domains, rounds)).encode())
        answers[0] += 1
        return result

    monkeypatch.setattr(SolverContext, "check", recording_check)
    history = artifact.history()
    for (_, _, _, base_source), (_, _, _, modified_source) in zip(history, history[1:]):
        base = parse_program(base_source)
        modified = parse_program(modified_source)
        procedure = artifact.procedure_name
        DiSE(base, modified, procedure_name=procedure, solver=ConstraintSolver()).run()
        symbolic_execute(modified, procedure_name=procedure, solver=ConstraintSolver())
    return answers[0], digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cold_pairs_answer_as_pinned(name, monkeypatch):
    artifacts = {artifact.name: artifact for artifact in (*all_artifacts(), *interproc_artifacts())}
    assert cold_pairs_digest(artifacts[name], monkeypatch) == PINNED[name]
