"""The benchmark's inputs: the five artifact version histories, ordered by seed.

Seed 0 keeps each artifact's recorded version order (the order of the
paper's tables) in every pass.  Any other seed shuffles each history's
non-base versions with a generator seeded from ``(seed, pass index, artifact
name)``, so consecutive pairs differ from the recorded ones while every
version still appears once, and each pass of a run sees another order.  The
program under test only ever receives the resulting program texts.
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program() -> None:
    """Make the checkout's ``src/repro`` importable, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source at {SRC}/repro\n")
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def artifacts() -> list:
    """The five artifacts in benchmark order: ASW, WBS, OAE, ASW-CALLS, FCS."""
    import_program()
    from repro.artifacts import all_artifacts, interproc_artifacts

    return list(all_artifacts()) + list(interproc_artifacts())


def ordered(artifact, seed: int, pass_index: int):
    """``artifact`` with its non-base versions in the order the seed selects."""
    if seed == 0:
        return artifact
    versions = list(artifact.versions)
    random.Random(f"{seed}:{pass_index}:{artifact.name}").shuffle(versions)
    return dataclasses.replace(artifact, versions=tuple(versions))


def histories(seed: int, pass_index: int, names=None) -> List:
    """The artifacts named (all when ``None``), ordered for one pass."""
    return [
        ordered(artifact, seed, pass_index)
        for artifact in artifacts()
        if names is None or artifact.name in names
    ]


def pair_key(artifact: str, base: str, modified: str) -> str:
    return f"{artifact}|{base}|{modified}"


def version_key(artifact: str, version: str) -> str:
    return f"{artifact}|{version}"
