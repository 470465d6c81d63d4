"""The evaluation artifact programs (paper §4.2).

``simple`` holds the two worked examples (Figures 1 and 2); ``mutants``
holds the three evaluation artifacts -- ASW, WBS and OAE -- each with a base
version and the sequence of modified versions used by the Table 2/3
benchmarks.
"""

from repro.artifacts.interproc import (
    ASW_CALLS_ARTIFACT,
    FCS_ARTIFACT,
    asw_calls_artifact,
    fcs_artifact,
    interproc_artifacts,
)
from repro.artifacts.mutants import (
    Artifact,
    VersionSpec,
    all_artifacts,
    asw_artifact,
    oae_artifact,
    wbs_artifact,
)
from repro.artifacts.simple import (
    TESTX_SOURCE,
    UPDATE_BASE_SOURCE,
    UPDATE_MODIFIED_SOURCE,
    testx_program,
    update_base_program,
    update_modified_program,
)

__all__ = [
    "Artifact",
    "VersionSpec",
    "all_artifacts",
    "ASW_CALLS_ARTIFACT",
    "FCS_ARTIFACT",
    "asw_calls_artifact",
    "fcs_artifact",
    "interproc_artifacts",
    "asw_artifact",
    "oae_artifact",
    "wbs_artifact",
    "TESTX_SOURCE",
    "UPDATE_BASE_SOURCE",
    "UPDATE_MODIFIED_SOURCE",
    "testx_program",
    "update_base_program",
    "update_modified_program",
]
