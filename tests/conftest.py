"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.artifacts.simple import (
    TESTX_SOURCE,
    UPDATE_BASE_SOURCE,
    UPDATE_MODIFIED_SOURCE,
    testx_program,
    update_base_program,
    update_modified_program,
)
from repro.cfg.builder import build_cfg
from repro.solver.core import ConstraintSolver

# Every run generates the same examples, and no example database carries
# one run's failures into the next.  Per-test @settings keep their own
# max_examples and deadline.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def solver():
    return ConstraintSolver()


@pytest.fixture
def testx():
    return testx_program()


@pytest.fixture
def update_base():
    return update_base_program()


@pytest.fixture
def update_modified():
    return update_modified_program()


@pytest.fixture
def update_modified_cfg(update_modified):
    return build_cfg(update_modified, "update")


@pytest.fixture
def update_base_cfg(update_base):
    return build_cfg(update_base, "update")


@pytest.fixture
def testx_source():
    return TESTX_SOURCE


@pytest.fixture
def update_base_source():
    return UPDATE_BASE_SOURCE


@pytest.fixture
def update_modified_source():
    return UPDATE_MODIFIED_SOURCE
