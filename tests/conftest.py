"""Fixtures shared by the test modules."""

import pytest

from lahbell.exact import MultiPoly


@pytest.fixture
def count_products():
    """count_products(build): the number of MultiPoly products build() makes."""

    def count(build):
        calls = 0
        multiply = MultiPoly.__mul__

        def counted(self, other):
            nonlocal calls
            calls += 1
            return multiply(self, other)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MultiPoly, "__mul__", counted)
            patch.setattr(MultiPoly, "__rmul__", counted)
            build()
        return calls

    return count


def pytest_terminal_summary(terminalreporter):
    """Print the run time of the fault table, which is meant to stay under 10 s."""
    seconds = sum(
        getattr(report, "duration", 0)
        for reports in terminalreporter.stats.values()
        for report in reports
        if getattr(report, "nodeid", "").startswith("tests/test_faults.py")
    )
    if seconds:
        terminalreporter.write_line(f"tests/test_faults.py ran in {seconds:.2f} s")
