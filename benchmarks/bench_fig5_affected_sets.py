"""Figure 5(b): the affected-set fixed-point computation for the §2.2 change.

Uses the strict published rule set (no forward-write extension) so the rule
applications line up with the paper's table; the final sets must be
ACN = {n0, n2, n10, n12} and AWN = {n1, n3, n4, n5, n11, n13, n14}.
"""

from conftest import emit

from repro.artifacts.simple import update_base_program, update_modified_program
from repro.core.dise import DiSE
from repro.reporting.tables import render_affected_sets, render_affected_trace


def compute_affected_sets():
    dise = DiSE(
        update_base_program(),
        update_modified_program(),
        procedure_name="update",
        forward_writes=False,
        record_trace=True,
    )
    return dise.compute_affected()


def test_fig5_affected_sets(run_once):
    static = run_once(compute_affected_sets)
    text = render_affected_trace(static.affected.trace, title="Figure 5(b)")
    text += "\n\n" + render_affected_sets(static.affected)
    emit("fig5_affected_sets", text)
    acn, awn = static.affected.names()
    assert acn == ("n0", "n2", "n10", "n12")
    assert awn == ("n1", "n3", "n4", "n5", "n11", "n13", "n14")
