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
