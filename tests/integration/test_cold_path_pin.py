"""The cold path's solver answers, pinned byte for byte.

Every adjacent version pair of the WBS and ASW-CALLS histories runs cold, as
perfbench's pairs-cold workload does: a DiSE run of the pair and a full
symbolic execution of the modified version, each with a fresh solver.  Every
answer the context makes (``SolverContext._decide``: each ``check`` on the
top frame and each ``assume`` probe on its own frame) feeds one SHA-256
digest: the verdict, the model, the answered frame's box and the solver's
``worklist_rounds`` counter right after the answer.

``PINNED`` was last re-recorded when the box began deciding undecided atoms
that are each ``<=`` or ``!=`` and share no variable: those probes no longer
reach the complete solver, so they carry no model.  Every verdict, box and
round count stayed as it was.  A change to how frames are built or probed
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
    "WBS": (896, "8f6cad7cc02848bee1cd88bcb7b88ff06669369258a63c5fc49f50950a92e8ed"),
    "ASW-CALLS": (1095, "7958aef92ed09009de4238603384f092384a911562933510f29d3159f7561aff"),
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
