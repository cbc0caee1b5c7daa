"""Exact polynomial arithmetic: canonical form, ring axioms, factorials, rendering."""

import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lahbell.exact import (
    INDETERMINATES,
    MultiPoly,
    _falling_prefixes,
    _finish,
    _fma,
    falling_factorial,
    generalized_falling,
    rising_factorial,
)

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
LAM = MultiPoly.var("lam")
ALPHA = MultiPoly.var("alpha")

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=9)
exponents = st.tuples(
    st.integers(0, 3), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)
polys = st.dictionaries(exponents, rationals, max_size=5).map(MultiPoly)


def test_indeterminate_universe():
    assert INDETERMINATES == ("x", "y", "lam", "alpha")
    with pytest.raises(ValueError):
        MultiPoly.var("t")


def test_zero_coefficients_are_dropped():
    assert MultiPoly({(1, 0, 0, 0): Fraction(0)}) == MultiPoly.zero()
    assert (X + (-X)).is_zero


def test_like_term_merge():
    assert (2 * X + X**2) + X == 3 * X + X**2


def test_cross_term_cancellation():
    assert X * (X - 1) * Y**2 + X * Y**2 == X**2 * Y**2


def test_multiplication_basics():
    assert X * (X + 1) == X**2 + X
    assert (X - LAM) * X == X**2 - LAM * X
    one = MultiPoly.const(1)
    assert one * (3 * Y + X) == 3 * Y + X


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys)
def test_additive_and_multiplicative_identities(p):
    assert p + MultiPoly.zero() == p
    assert p * MultiPoly.const(1) == p
    assert p - p == MultiPoly.zero()


def follows_the_scalar_rule(p):
    return all(type(c) is int or c.denominator != 1 for _, c in p.terms())


@given(polys, polys, rationals)
def test_ring_results_store_integral_fractions_as_ints(a, b, c):
    for result in (a + b, a - b, a * b, a * c, c * a, a + c, c - a, a.derivative("x"),
                   a.substitute({"y": b})):
        assert follows_the_scalar_rule(result)


@given(st.one_of(rationals, polys), st.one_of(rationals, polys), rationals, polys)
def test_fma_accumulates_in_place(a, b, c, start):
    out = {}
    _fma(out, 1, start, 1)
    _fma(out, c, a, b)
    total = _finish(out)
    assert total == start + c * a * b and follows_the_scalar_rule(total)
    scalars = {}
    _fma(scalars, c, Fraction(2), Fraction(1, 2))
    value = _finish(scalars, poly=False)
    assert value == c and (type(value) is int or value.denominator != 1)


def test_partial_evaluation():
    p = 2 * X + X**2
    assert p.evaluate({"x": 1}) == MultiPoly.const(3)
    assert p.evaluate({"x": 1}).as_rational() == 3
    assert (X**2 - LAM * X).evaluate({"lam": 0}) == X**2
    assert p.evaluate({}) == p


def test_substitute_polynomial():
    p = X**2 + 2 * X
    assert p.substitute({"x": Y}) == Y**2 + 2 * Y
    assert p.substitute({"x": X + 1}) == X**2 + 4 * X + 3


def test_as_rational_requires_constant():
    with pytest.raises(ValueError):
        X.as_rational()


def test_degrees():
    p = X**2 * Y + LAM
    assert p.degree("x") == 2
    assert p.degree("y") == 1
    assert p.degree("alpha") == 0
    with pytest.raises(ValueError, match="unknown indeterminate 'z'"):
        p.degree("z")
    assert p.total_degree() == 3
    assert not p.is_constant()
    assert MultiPoly.const(5).is_constant()


def test_falling_and_rising_factorials():
    assert falling_factorial(X, 3) == X**3 - 3 * X**2 + 2 * X
    assert rising_factorial(X, 2) == X**2 + X
    assert generalized_falling(X, 2, LAM) == X**2 - LAM * X
    assert falling_factorial(X, 0) == MultiPoly.const(1)
    with pytest.raises(ValueError):
        falling_factorial(X, -1)


@settings(max_examples=100)
@given(rationals, st.integers(0, 8))
def test_rising_equals_signed_falling_at_negated_argument(q, n):
    rising = rising_factorial(X, n).evaluate({"x": q}).as_rational()
    falling = falling_factorial(X, n).evaluate({"x": -q}).as_rational()
    assert rising == (-1) ** n * falling


@pytest.mark.parametrize(
    "p, step",
    [(X, 0), (X, 1), (X, -1), (X, LAM), (X * Y, Y), (ALPHA + 9, 1), (Fraction(1, 2), LAM)],
)
def test_falling_prefixes_match_per_k_products(p, step):
    # Each prefix against its own product, built from scratch for every k.
    n = 9
    expected = [
        reduce(operator.mul, (p - i * step for i in range(k)), MultiPoly.const(1))
        for k in range(n + 1)
    ]
    assert list(_falling_prefixes(p, n, step)) == expected
    assert generalized_falling(p, n, step) == expected[n]
    for build in (falling_factorial, rising_factorial):
        with pytest.raises(ValueError):
            build(X, -1)
    with pytest.raises(ValueError):
        generalized_falling(p, -1, step)


@pytest.mark.parametrize("n", range(13))
def test_generalized_falling_degenerations(n):
    assert generalized_falling(X, n, 1) == falling_factorial(X, n)
    assert generalized_falling(X, n, 0) == X**n


def test_derivative():
    p = X**3 + 6 * X**2 + 6 * X
    assert p.derivative("x") == 3 * X**2 + 12 * X + 6
    assert (X * Y).derivative("y") == X
    assert MultiPoly.const(7).derivative("x") == MultiPoly.zero()
    with pytest.raises(ValueError, match="unknown indeterminate 'z'"):
        p.derivative("z")


def test_power():
    assert X**0 == MultiPoly.const(1)
    assert (X + 1) ** 2 == X**2 + 2 * X + 1
    with pytest.raises(ValueError):
        X ** (-1)


def test_integer_polynomials_keep_int_coefficients():
    p = (X + 1) ** 5
    assert [c for _, c in p.terms()] == [1, 5, 10, 10, 5, 1]
    assert all(type(c) is int for _, c in p.terms())
    value = p.evaluate({"x": 1}).as_rational()
    assert type(value) is Fraction and value == 32
    assert type(MultiPoly.const(Fraction(6, 3)).constant_term()) is int
    assert (Fraction(1, 2) * X).coefficient((1, 0, 0, 0)) == Fraction(1, 2)


def test_polys_are_unhashable():
    with pytest.raises(TypeError):
        hash(X)


def test_rendering_is_deterministic():
    assert str(X**2 + 2 * X) == "x^2 + 2*x"
    assert str(MultiPoly.zero()) == "0"
    assert str(1 - X) == "-x + 1"
    assert str(X - 1) == "x - 1"
    assert str(Fraction(1, 2) * X) == "1/2*x"
    assert str(MultiPoly.const(Fraction(-3, 4))) == "-3/4"
    assert str(falling_factorial(X, 3)) == "x^3 - 3*x^2 + 2*x"
    assert str(X * Y**2 + X**2 - LAM) == "x*y^2 + x^2 - lam"
