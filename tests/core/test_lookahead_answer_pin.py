"""The feasibility lookahead's answers, pinned.

Every adjacent version pair of the ASW, WBS, OAE, ASW-CALLS and FCS
histories runs DiSE cold, as perfbench's pairs-cold workload does, in two
orders of each history: the recorded one (seed 0) and the shuffle
perfbench's first pass takes at seed 3.  The §2.2 motivating example joins
them.  Every ``FeasibleReachability.reachable_targets`` call feeds one
SHA-256 digest: the queried node, the probed targets and the answer.

How the lookahead finds its answers may change (memo layers, shortcuts
from the CFG); which targets it answers may not.  A change that means to
move them re-records the constant and says why.
"""

import dataclasses
import hashlib
import random

from repro.artifacts import all_artifacts, interproc_artifacts
from repro.artifacts.simple import UPDATE_BASE_SOURCE, UPDATE_MODIFIED_SOURCE
from repro.core.dise import DiSE
from repro.core.lookahead import FeasibleReachability
from repro.lang.parser import parse_program
from repro.solver.core import ConstraintSolver

PINNED = (30401, "ac5ef9f29c921d03d796ca2a09b85c6fe1ec689f4137a9b80ad959476742be61")


def ordered(artifact, seed):
    """``artifact`` with its non-base versions in perfbench's pass-0 order for ``seed``."""
    if seed == 0:
        return artifact
    versions = list(artifact.versions)
    random.Random(f"{seed}:0:{artifact.name}").shuffle(versions)
    return dataclasses.replace(artifact, versions=tuple(versions))


def pairs():
    """``(base source, modified source, procedure)`` of every pinned pair."""
    for seed in (0, 3):
        for artifact in (*all_artifacts(), *interproc_artifacts()):
            history = ordered(artifact, seed).history()
            for (_, _, _, base), (_, _, _, modified) in zip(history, history[1:]):
                yield base, modified, artifact.procedure_name
    yield UPDATE_BASE_SOURCE, UPDATE_MODIFIED_SOURCE, "update"


def answers_digest(monkeypatch):
    """Run every pinned pair's DiSE cold; digest every lookahead answer."""
    digest = hashlib.sha256()
    calls = [0]
    reachable_targets = FeasibleReachability.reachable_targets

    def recording(self, state, target_ids, assume_feasible=False):
        answer = reachable_targets(self, state, target_ids, assume_feasible)
        node_id, targets = state.node.node_id, sorted(target_ids)
        digest.update(repr((node_id, targets, sorted(answer))).encode())
        calls[0] += 1
        return answer

    monkeypatch.setattr(FeasibleReachability, "reachable_targets", recording)
    for base, modified, procedure in pairs():
        DiSE(
            parse_program(base),
            parse_program(modified),
            procedure_name=procedure,
            solver=ConstraintSolver(),
        ).run()
    return calls[0], digest.hexdigest()


def test_lookahead_answers_as_pinned(monkeypatch):
    assert answers_digest(monkeypatch) == PINNED
