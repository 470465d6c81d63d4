"""The cold path's solver answers, pinned byte for byte.

Every adjacent version pair of the WBS and ASW-CALLS histories runs cold, as
perfbench's pairs-cold workload does: a DiSE run of the pair and a full
symbolic execution of the modified version, each with a fresh solver.  Every
answer the context makes (``SolverContext._decide``: each ``check`` on the
top frame and each ``assume`` probe on its own frame) feeds one SHA-256
digest: the verdict, the model, the answered frame's box and the solver's
``worklist_rounds`` counter right after the answer.

``PINNED`` was last re-recorded when the lookahead began answering a query
whose targets all lie before its first branch from the CFG alone: it no
longer syncs its context for those queries, so the shared solver's
``worklist_rounds`` reads lower after later answers (WBS 17,846 -> 17,010
and ASW-CALLS 45,709 -> 45,177 summed over the answers).  Every verdict,
model and box stayed as it was.  A change to how frames are built or probed
must leave every answer, box and round count as it was.  A change that
means to move them re-records the constant and says why.
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
    "WBS": (896, "39934c76233e0ebf957ac3ca0ca2797dcefa40ceb1453386c80bf24ce3521fd9"),
    "ASW-CALLS": (1095, "cbfef6c8ba1a0a1f26e7ee54db7c19f84306b8b72427832cf5c8ce3418e160ea"),
}


def cold_pairs_digest(artifact, monkeypatch):
    """Run ``artifact``'s adjacent pairs cold; digest every context answer."""
    digest = hashlib.sha256()
    answers = [0]
    decide = SolverContext._decide

    def recording_decide(self, frame, with_model):
        result = decide(self, frame, with_model)
        model = None if result.model is None else sorted(result.model.items())
        domains = sorted((name, box.low, box.high) for name, box in (frame.domains or {}).items())
        rounds = self.solver.statistics.worklist_rounds
        digest.update(repr((result.satisfiable, model, domains, rounds)).encode())
        answers[0] += 1
        return result

    monkeypatch.setattr(SolverContext, "_decide", recording_decide)
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
