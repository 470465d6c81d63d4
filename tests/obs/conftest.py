"""Shared fixtures for the telemetry test suite."""

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """No recorder leaks across tests: whatever a test installs (or fails
    to uninstall on an assertion failure) is cleared afterwards."""
    obs.install(None)
    yield
    obs.install(None)
