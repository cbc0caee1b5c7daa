"""Truncated power series: arithmetic, exp/log, composition, GF catalog."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lahbell.series as series
from lahbell.exact import MultiPoly, generalized_falling
from lahbell.families import bell_poly, lah_bell_poly
from lahbell.series import (
    GF_NAMES,
    TruncatedSeries,
    degenerate_exponential,
    exp_t_minus_one,
    geometric_minus_one,
    gf_catalog,
    identity_t,
    neg_log_one_minus_t,
    ser_one,
)
from lahbell.triangles import (
    bell_number,
    lah,
    lah_bell_number,
    stirling1_signed,
    stirling2,
)

X = MultiPoly.var("x")
LAM = MultiPoly.var("lam")
ALPHA = MultiPoly.var("alpha")

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
zero_led = st.lists(rationals, min_size=11, max_size=11).map(
    lambda cs: TruncatedSeries([Fraction(0), *cs[1:]])
)
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.just(0), st.integers(0, 1), st.just(0)), rationals, max_size=3
).map(MultiPoly)
poly_series = st.lists(small_polys, min_size=9, max_size=9).map(TruncatedSeries)
rational_inner = st.lists(rationals, min_size=8, max_size=8).map(
    lambda cs: TruncatedSeries([Fraction(0), *cs])
)
xy_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.just(0), st.just(0)), rationals, max_size=2
).map(MultiPoly)
ring_elements = st.one_of(st.integers(-4, 4), rationals, xy_polys)
unit_led = st.integers(0, 12).flatmap(
    lambda order: st.lists(ring_elements, min_size=order, max_size=order).map(
        lambda cs: TruncatedSeries([1, *cs], order=order)
    )
)


def horner_compose(outer, inner):
    """Reference composition: outer(inner) by Horner's rule, one series product per order."""
    order = outer.order
    acc = TruncatedSeries([outer.coefficient(order)], order=order)
    for i in range(order - 1, -1, -1):
        acc = acc * inner + TruncatedSeries([outer.coefficient(i)], order=order)
    return acc


def one_minus_exp_neg_t(order):
    return ser_one(order) - identity_t(order).scale(-1).exp()


def test_constructor_pads_and_validates():
    s = TruncatedSeries([1, 2], order=4)
    assert s.order == 4
    assert s.coefficients() == (1, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        TruncatedSeries([])
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2, 3], order=1)
    with pytest.raises(ValueError):
        TruncatedSeries([1], order=-1)


def test_exp_of_t():
    assert identity_t(3).exp().coefficients() == (
        Fraction(1),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
    )


def test_geometric_minus_one():
    s = geometric_minus_one(3)
    assert s.coefficients() == (0, 1, 1, 1)
    assert s.coefficient(0) == 0
    assert s.egf_coefficient(2) == 2


def test_preconditions_rejected():
    with pytest.raises(ValueError):
        ser_one(4).exp()
    with pytest.raises(ValueError):
        ser_one(4).log1p()
    with pytest.raises(ValueError):
        identity_t(4).compose(ser_one(4))
    with pytest.raises(ValueError):
        identity_t(4).pow(2)
    with pytest.raises(ValueError):
        identity_t(4) + identity_t(5)
    with pytest.raises(ValueError):
        identity_t(4) * identity_t(3)


def test_series_are_unhashable():
    with pytest.raises(TypeError):
        hash(identity_t(2))


@given(zero_led)
def test_exp_log_round_trip(f):
    assert (f.exp() - ser_one(f.order)).log1p() == f
    assert f.log1p().exp() == ser_one(f.order) + f


@given(zero_led)
def test_compose_with_identity(f):
    g = ser_one(f.order) + f
    assert g.compose(identity_t(f.order)) == g


@settings(max_examples=40, deadline=None)
@given(poly_series, rational_inner)
def test_compose_matches_the_horner_reference(outer, inner):
    assert outer.compose(inner) == horner_compose(outer, inner)


@pytest.mark.parametrize("name", ["degenerate_bell", "degenerate_lah_bell", "lah_bell_poly"])
def test_catalog_compose_matches_the_horner_reference(name):
    outer = gf_catalog(name, 10)
    for inner in (geometric_minus_one(10), neg_log_one_minus_t(10), one_minus_exp_neg_t(10)):
        assert outer.compose(inner) == horner_compose(outer, inner)


def test_compose_collapses_geometric_through_exponential():
    # 1/(1 - (1 - e^{-t})) - 1 = e^t - 1
    n = 10
    lhs = geometric_minus_one(n).compose(one_minus_exp_neg_t(n))
    assert lhs == exp_t_minus_one(n)


def test_compose_collapses_exponential_through_log():
    # e^{-log(1-t)} - 1 = t/(1-t)
    n = 10
    lhs = exp_t_minus_one(n).compose(neg_log_one_minus_t(n))
    assert lhs == geometric_minus_one(n)


def exp_log_pow(f, e):
    """Reference power: f^e = exp(e * log1p(f - 1)), the route pow used to take."""
    return (f - ser_one(f.order)).log1p().scale(e).exp()


@settings(max_examples=60, deadline=None)
@given(unit_led, ring_elements)
def test_pow_matches_the_exp_log_reference(f, e):
    assert f.pow(e) == exp_log_pow(f, e)


def test_pow_rejects_what_it_rejected():
    with pytest.raises(ValueError):
        (ser_one(4) + ser_one(4)).pow(X)
    with pytest.raises(TypeError):
        (ser_one(4) + identity_t(4)).pow(0.5)
    with pytest.raises(TypeError):
        ser_one(0).pow(0.5)


def test_pow_geometric():
    one_minus_t = ser_one(6) - identity_t(6)
    assert one_minus_t.pow(-1).coefficients() == (1,) * 7
    assert one_minus_t.pow(X).egf_coefficient(1) == -X


def test_scaled_powers_reproduce_triangles():
    n = 15
    for k in range(n + 1):
        inv = Fraction(1, factorial(k))
        lists_k = (geometric_minus_one(n) ** k).scale(inv)
        blocks_k = (exp_t_minus_one(n) ** k).scale(inv)
        cycles_k = (identity_t(n).log1p() ** k).scale(inv)
        for m in range(n + 1):
            assert lists_k.egf_coefficient(m) == lah(m, k)
            assert blocks_k.egf_coefficient(m) == stirling2(m, k)
            assert cycles_k.egf_coefficient(m) == stirling1_signed(m, k)


@pytest.mark.parametrize("name", GF_NAMES)
def test_catalog_egf_coefficients_are_integral(name):
    s = gf_catalog(name, 12)
    for n in range(13):
        c = s.egf_coefficient(n)
        if isinstance(c, MultiPoly):
            assert all(type(coeff) is int for _, coeff in c.terms()), (n, c)
        else:
            assert type(c) is int, (n, c)


def test_ordinary_coefficients_at_the_boundary():
    s = TruncatedSeries([Fraction(1, 2), 3, X])
    assert s.egf_coefficient(2) == 2 * X
    assert s.coefficients() == (Fraction(1, 2), 3, X)
    assert type(s.coefficient(1)) is Fraction


def test_scalar_coefficients_follow_the_multipoly_rule():
    # A Fraction with denominator 1 is stored as an int, exactly as MultiPoly
    # stores its coefficients; anything inexact is rejected.
    s = TruncatedSeries([Fraction(4, 2), Fraction(3, 1), Fraction(1, 2), Fraction(1, 5)])
    assert [type(s.egf_coefficient(n)) for n in range(4)] == [int, int, int, Fraction]
    assert s.scale(Fraction(5, 1)).coefficients() == (10, 15, Fraction(5, 2), 1)
    # Ring results follow the rule too, not only input.
    def egf_types(s):
        return [type(s.egf_coefficient(n)) for n in range(s.order + 1)]

    fifths = TruncatedSeries([Fraction(1, 5)] * 4)
    assert egf_types(fifths.scale(Fraction(5, 1))) == [int] * 4
    assert fifths.scale(Fraction(5, 1)).egf_coefficient(3) == 6
    assert egf_types(fifths + fifths + fifths + fifths + fifths) == [int] * 4
    assert egf_types(fifths - fifths.scale(-4)) == [int] * 4
    doubled = (X * Fraction(1, 2)) * 2
    assert [type(c) for _, c in doubled.terms()] == [int] and doubled == X
    # so base^k / k! has the triangle's ints as egf coefficients.
    assert egf_types((exp_t_minus_one(6) ** 2).scale(Fraction(1, 2))) == [int] * 7
    for bad in (0.5, "1", None):
        with pytest.raises(TypeError):
            TruncatedSeries([1, bad])
        with pytest.raises(TypeError):
            s.scale(bad)


def test_degenerate_catalog_makes_no_horner_products(count_products):
    # Horner composition made 8125 polynomial products here; the power
    # table needs O(order^2).
    gf_catalog.cache_clear()
    calls = count_products(lambda: gf_catalog("degenerate_bell", 24))
    gf_catalog.cache_clear()
    assert calls <= 2 * 25**2


def test_bivariate_catalog_is_one_miller_power(monkeypatch, count_products):
    # exp(x * log1p(f - 1)) ran two O(order^2) recurrences over growing
    # polynomials; the Miller recurrence makes at most two kernel calls per
    # nonzero f_i per order, and a linear number of ring operations.
    def refused(self):
        raise AssertionError("the symbolic power must not go through exp or log1p")

    kernel_calls = 0
    kernel = series._fma

    def counted(*args):
        nonlocal kernel_calls
        kernel_calls += 1
        return kernel(*args)

    monkeypatch.setattr(TruncatedSeries, "exp", refused)
    monkeypatch.setattr(TruncatedSeries, "log1p", refused)
    monkeypatch.setattr(series, "_fma", counted)
    gf_catalog.cache_clear()
    products = count_products(lambda: gf_catalog("bivariate_lah_bell", 24))
    gf_catalog.cache_clear()
    assert kernel_calls <= 25**2
    assert products <= 2 * 25


def test_degenerate_exponential_is_a_running_product(count_products):
    # Two products per order: the step (n-1) lam and the running product
    # with (x - (n-1) lam).
    assert count_products(lambda: degenerate_exponential(24)) <= 2 * 24
    s = degenerate_exponential(24)
    for n in (0, 1, 7, 24):
        assert s.egf_coefficient(n) == generalized_falling(X, n, LAM)


def test_catalog_names_and_unknown():
    assert set(GF_NAMES) == {
        "lah_bell",
        "lah_bell_poly",
        "bell",
        "bell_poly",
        "bivariate_bell",
        "bivariate_lah_bell",
        "degenerate_lah_bell",
        "degenerate_bell",
        "laguerre_weighted",
    }
    with pytest.raises(ValueError):
        gf_catalog("zeta", 4)


def test_catalog_lah_bell_numbers():
    s = gf_catalog("lah_bell", 20)
    for n in range(21):
        assert s.egf_coefficient(n) == lah_bell_number(n)


def test_catalog_bell_numbers():
    s = gf_catalog("bell", 12)
    for n in range(13):
        assert s.egf_coefficient(n) == bell_number(n)


def test_catalog_polynomial_families():
    lb = gf_catalog("lah_bell_poly", 15)
    b = gf_catalog("bell_poly", 8)
    for n in range(16):
        assert lb.egf_coefficient(n) == lah_bell_poly(n)
    for n in range(9):
        assert b.egf_coefficient(n) == bell_poly(n)
    assert b.egf_coefficient(2) == X**2 + X


def test_catalog_laguerre_first_order():
    s = gf_catalog("laguerre_weighted", 3)
    assert s.egf_coefficient(1) == ALPHA + 1 - X


def test_catalog_bivariate_coefficient():
    s = gf_catalog("bivariate_lah_bell", 2)
    y = MultiPoly.var("y")
    assert s.egf_coefficient(2) == 2 * X * y + X**2 * y**2 - X * y**2


def test_degenerate_exponential_coefficients():
    s = degenerate_exponential(2)
    assert s.egf_coefficient(0) == 1
    assert s.egf_coefficient(1) == X
    assert s.egf_coefficient(2) == X**2 - LAM * X


def test_substitution_coherence():
    n = 12
    composed = gf_catalog("lah_bell", n).compose(one_minus_exp_neg_t(n))
    assert composed == gf_catalog("bell", n)
