"""Polynomial families: closed forms, degenerations, recurrence and derivative."""

from fractions import Fraction

import pytest

from lahbell.exact import MultiPoly, falling_factorial, rising_factorial
from lahbell.families import (
    FAMILIES,
    bell_poly,
    bivariate_bell_poly,
    bivariate_lah_bell_poly,
    degenerate_bell_poly,
    degenerate_lah_bell_poly,
    lah_bell_derivative,
    lah_bell_poly,
    lah_bell_recurrence_step,
    laguerre_poly,
    poly_family,
    triangle_sum,
)
from lahbell.triangles import bell_number, lah, lah_bell_number

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
LAM = MultiPoly.var("lam")
ALPHA = MultiPoly.var("alpha")


def test_small_polynomials():
    assert bell_poly(0) == 1
    assert bell_poly(2) == X**2 + X
    assert bell_poly(3) == X**3 + 3 * X**2 + X
    assert lah_bell_poly(0) == 1
    assert lah_bell_poly(1) == X
    assert lah_bell_poly(2) == X**2 + 2 * X
    assert lah_bell_poly(3) == X**3 + 6 * X**2 + 6 * X


def test_bivariate_polynomials():
    assert bivariate_bell_poly(1) == X * Y
    assert bivariate_bell_poly(2) == X * Y + X**2 * Y**2 - X * Y**2
    assert bivariate_lah_bell_poly(2) == 2 * X * Y + X**2 * Y**2 - X * Y**2


def test_laguerre_polynomials():
    assert laguerre_poly(0) == 1
    assert laguerre_poly(1) == ALPHA + 1 - X
    assert (
        laguerre_poly(2)
        == X**2 - 2 * X * ALPHA + ALPHA**2 - 4 * X + 3 * ALPHA + 2
    )


def test_negative_index_rejected():
    for fn in (
        bell_poly,
        lah_bell_poly,
        bivariate_bell_poly,
        bivariate_lah_bell_poly,
        degenerate_bell_poly,
        degenerate_lah_bell_poly,
        laguerre_poly,
    ):
        with pytest.raises(ValueError):
            fn(-1)


def test_poly_family_dispatch():
    assert set(FAMILIES) == {
        "bell",
        "lah_bell",
        "bivariate_bell",
        "bivariate_lah_bell",
        "degenerate_bell",
        "degenerate_lah_bell",
        "laguerre",
    }
    assert poly_family("lah_bell", 2) == lah_bell_poly(2)
    assert poly_family("laguerre", 1) == laguerre_poly(1)
    with pytest.raises(ValueError):
        poly_family("hermite", 2)


@pytest.mark.parametrize("n", range(16))
def test_value_at_one_recovers_sequences(n):
    assert bell_poly(n).evaluate({"x": 1}).as_rational() == bell_number(n)
    assert lah_bell_poly(n).evaluate({"x": 1}).as_rational() == lah_bell_number(n)


@pytest.mark.parametrize("n", range(16))
def test_degenerate_families_collapse_at_zero_step(n):
    assert degenerate_bell_poly(n).evaluate({"lam": 0}) == bell_poly(n)
    assert degenerate_lah_bell_poly(n).evaluate({"lam": 0}) == lah_bell_poly(n)


@pytest.mark.parametrize("n", range(16))
def test_bivariate_families_collapse_at_unit_y(n):
    assert bivariate_lah_bell_poly(n).substitute({"y": 1}) == rising_factorial(X, n)
    assert bivariate_bell_poly(n).substitute({"y": 1}) == X**n


@pytest.mark.parametrize("n", range(16))
def test_bivariate_y_profile_matches_univariate_family(n):
    # the pure-y shadow sum_k L(n,k) y^k is the univariate polynomial in y
    shadow = sum((lah(n, k) * Y**k for k in range(n + 1)), MultiPoly.zero())
    assert lah_bell_poly(n).substitute({"x": Y}) == shadow


@pytest.mark.parametrize("n", range(16))
def test_rising_basis_expansion(n):
    # <x>_n = sum_k L(n,k) (x)_k and its alternating inverse
    rising = rising_factorial(X, n)
    falling = falling_factorial(X, n)
    assert rising == sum(
        (lah(n, k) * falling_factorial(X, k) for k in range(n + 1)),
        MultiPoly.zero(),
    )
    assert falling == sum(
        ((-1) ** (n - k) * lah(n, k) * rising_factorial(X, k) for k in range(n + 1)),
        MultiPoly.zero(),
    )


def test_recurrence_step():
    values = [lah_bell_poly(m) for m in range(3)]
    assert lah_bell_recurrence_step(2, values) == lah_bell_poly(3)
    with pytest.raises(ValueError):
        lah_bell_recurrence_step(3, values)


def test_recurrence_chain_from_scratch():
    values = [MultiPoly.const(1)]
    for n in range(12):
        values.append(lah_bell_recurrence_step(n, values))
    for n, poly in enumerate(values):
        assert poly == lah_bell_poly(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_derivative_identity(n):
    values = [lah_bell_poly(m) for m in range(n)]
    assert lah_bell_poly(n).derivative("x") == lah_bell_derivative(n, values)


def test_derivative_index_validation():
    with pytest.raises(ValueError):
        lah_bell_derivative(0, [])
    values = [lah_bell_poly(m) for m in range(3)]
    for short_or_long in (values[:2], values + [lah_bell_poly(3)]):
        with pytest.raises(ValueError):
            lah_bell_derivative(3, short_or_long)


def test_triangle_sum_takes_exactly_n_plus_one_bases():
    assert triangle_sum(2, lah, [1, X, X**2]) == lah_bell_poly(2)
    for bases in ([1, X], [1, X, X**2, X**3]):
        with pytest.raises(ValueError):
            triangle_sum(2, lah, bases)


@pytest.mark.parametrize("build", [bivariate_lah_bell_poly, degenerate_lah_bell_poly, laguerre_poly])
def test_family_bases_are_one_running_product(count_products, build):
    # A basis built from scratch for each k costs O(n^2) products (1640 to
    # 1926 at n = 40); the running product costs one per k, and Laguerre adds
    # one per k for x^(n-k) and one per k to join the two.
    n = 40
    assert count_products(lambda: build(n)) <= 3 * n + 3


def test_rational_evaluation():
    value = lah_bell_poly(3).evaluate({"x": Fraction(1, 2)}).as_rational()
    assert value == Fraction(1, 8) + 6 * Fraction(1, 4) + 6 * Fraction(1, 2)
