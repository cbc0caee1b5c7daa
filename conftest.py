"""Fixtures for every test under this directory, bench/ included."""

import pytest


@pytest.fixture(autouse=True)
def _default_format(monkeypatch):
    """Run each test, and each process it starts, without a user's LAHBELL_FORMAT.

    The variable sets the CLI's default output format, and the tests pin the
    text default.  A test that needs it sets it itself.
    """
    monkeypatch.delenv("LAHBELL_FORMAT", raising=False)
