"""Truncated power series: arithmetic, exp/log, composition, GF catalog."""

import time
import tracemalloc
from collections.abc import Iterator
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lahbell.series as series
from lahbell.exact import MAX_DEGREE, MultiPoly, generalized_falling
from lahbell.families import bell_poly, lah_bell_poly
from lahbell.identities import run_suite
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
Y = MultiPoly.var("y")
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


def test_power_rejects_a_bool_exponent():
    with pytest.raises(ValueError, match="series power must be a nonnegative integer"):
        TruncatedSeries([1, 1]) ** True


def test_catalog_rejects_a_bool_order():
    gf_catalog("bell", 1)  # a cached order-1 entry must not answer for True
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        gf_catalog("bell", True)


@pytest.mark.parametrize("order", [2.5, 2.0, "3", None], ids=repr)
def test_catalog_rejects_an_order_that_is_not_an_int(order):
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        gf_catalog("bell", order)


def test_log1p_inverts_exp_minus_one():
    # log(1 + (e^t - 1)) = t, with a c-term at every order of log1p's recurrence.
    assert exp_t_minus_one(12).log1p() == identity_t(12)


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


def test_compose_holds_no_partial_sum_beside_the_finished_coefficients():
    # Coefficient k is final once P_k is added, so its partial sum is dropped
    # then, and the peak stays near the size of the result.
    outer, inner = series._stepped_exponential(60, X * Y, Y), exp_t_minus_one(60)
    tracemalloc.start()
    try:
        result = outer.compose(inner)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.egf_coefficient(60) != 0
    assert peak <= 1.2 * size


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


# References for the shared first-order solver behind exp, log1p and pow, and
# for the divided-power table: each is built from series products alone.
poly_zero_led = st.lists(xy_polys, min_size=8, max_size=8).map(
    lambda cs: TruncatedSeries([0, *cs])
)
zero_led_any = st.one_of(zero_led, poly_zero_led)


def product_powers(f):
    """f^0, f^1, ..., f^N, one series product each."""
    powers = [ser_one(f.order)]
    for _ in range(f.order):
        powers.append(powers[-1] * f)
    return powers


def series_sum(terms, order):
    return sum(terms, TruncatedSeries([0], order=order))


@settings(max_examples=40, deadline=None)
@given(zero_led_any)
def test_exp_is_the_sum_of_divided_powers(f):
    powers = product_powers(f)
    terms = (p.scale(Fraction(1, factorial(k))) for k, p in enumerate(powers))
    assert f.exp() == series_sum(terms, f.order)


@settings(max_examples=40, deadline=None)
@given(zero_led_any)
def test_log1p_is_the_alternating_power_sum(f):
    powers = product_powers(f)
    terms = (powers[k].scale(Fraction((-1) ** (k + 1), k)) for k in range(1, f.order + 1))
    assert f.log1p() == series_sum(terms, f.order)


@settings(max_examples=40, deadline=None)
@given(unit_led, st.integers(-4, 6))
def test_integer_pow_is_a_repeated_product(f, e):
    repeated = ser_one(f.order)
    for _ in range(abs(e)):
        repeated = repeated * f
    if e >= 0:
        assert f.pow(e) == repeated
    else:
        assert f.pow(e) * repeated == ser_one(f.order)


@settings(max_examples=40, deadline=None)
@given(unit_led, xy_polys)
def test_polynomial_pow_is_the_binomial_series(f, e):
    # f^e = sum_k (e)_k / k! (f - 1)^k, and (f - 1)^k vanishes past the order.
    falling = MultiPoly.const(1)
    terms = []
    for k, power in enumerate(product_powers(f - ser_one(f.order))):
        terms.append(power.scale(falling * Fraction(1, factorial(k))))
        falling = falling * (e - k)
    assert f.pow(e) == series_sum(terms, f.order)


@settings(max_examples=40, deadline=None)
@given(zero_led_any)
def test_divided_powers_are_scaled_binary_powers(inner):
    table = list(series._divided_powers(inner))
    assert len(table) == inner.order + 1
    for k, power in enumerate(table):
        assert power == (inner**k).scale(Fraction(1, factorial(k)))


def test_power_checks_share_the_compose_table(monkeypatch):
    # eq4 and eq9 read P_k = base^k / k! off one running table: one product
    # per k, where binary powers made 132 products and 32 power calls.
    products = 0
    multiply = TruncatedSeries.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return multiply(self, other)

    def refused(self, k):
        raise AssertionError("the power checks must not call TruncatedSeries.__pow__")

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    monkeypatch.setattr(TruncatedSeries, "__pow__", refused)
    records = run_suite(["eq4", "eq9"], 15)
    assert [r.passed() for r in records] == [True, True]
    assert products <= 30


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
    assert [type(c) for c in s.coefficients()] == [Fraction, int, MultiPoly]


def test_ordinary_coefficients_store_integers_as_int():
    # n! * a_n / n! with an integral a_n comes back as an int, never as
    # Fraction(a_n, 1), as everywhere else in the library.
    assert type(TruncatedSeries([1, 1, 1]).coefficient(2)) is int
    coefficients = gf_catalog("lah_bell", 3).coefficients()
    assert coefficients == (1, 1, Fraction(3, 2), Fraction(13, 6))
    assert [type(c) for c in coefficients] == [int, int, Fraction, Fraction]


@pytest.mark.parametrize(
    "build",
    [
        lambda: (ser_one(16) - identity_t(16)).pow(-ALPHA - 1)
        * geometric_minus_one(16).scale(-X).exp(),
        # A polynomial inner series: its products make new exponent vectors.
        lambda: degenerate_exponential(12).compose(exp_t_minus_one(12).scale(X * LAM)),
        lambda: gf_catalog("bivariate_lah_bell", 16),
    ],
    ids=["product", "compose", "first-order"],
)
def test_one_operation_keeps_one_key_per_monomial(build):
    # Every coefficient an operation finishes shares the packed exponent
    # vectors of the others: one int object per distinct monomial, not one
    # per term.
    s = build()
    polys = [s.egf_coefficient(n) for n in range(s.order + 1)]
    keys = [key for p in polys if isinstance(p, MultiPoly) for key in p._terms]
    assert len(keys) > len(set(keys))
    assert len({id(exps) for exps in keys}) == len(set(keys))


def test_first_order_makes_its_binomials_by_additions(monkeypatch):
    # Each step of the first-order recurrence makes its row C(m, .) from the
    # last one, so exp, log1p and pow call no comb.
    calls = 0
    binomial = series.comb

    def counted(n, k):
        nonlocal calls
        calls += 1
        return binomial(n, k)

    monkeypatch.setattr(series, "comb", counted)
    gf_catalog.cache_clear()
    try:
        bell = gf_catalog("bell", 200)
        assert calls == 0
        assert bell.egf_coefficient(200) == bell_number(200)
        s = TruncatedSeries([0, Fraction(1, 2), 3, 0, Fraction(-2, 7), 1], order=12)
        assert (s.exp() - ser_one(12)).log1p() == s and calls == 0
    finally:
        gf_catalog.cache_clear()


# Each row's g solves a g' = b' g for polynomials a and b in t of degree at
# most 2, so a coefficient takes at most 4 kernel calls; exp and pow of the
# dense exponent took O(order) each, and composition O(order) per power.
@pytest.mark.parametrize(
    "name, order",
    [
        ("lah_bell", 200),
        ("lah_bell_poly", 200),
        ("bivariate_lah_bell", 60),
        ("degenerate_lah_bell", 60),
        ("laguerre_weighted", 60),
    ],
)
def test_rational_exponent_rows_are_one_sparse_solve(monkeypatch, name, order):
    calls = 0
    kernel = series._fma

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(series, "_fma", counted)
    gf_catalog.cache_clear()
    try:
        gf_catalog(name, order)
    finally:
        gf_catalog.cache_clear()
    assert 0 < calls <= 4 * order


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


def test_bivariate_catalog_is_the_composed_stepped_exponential(monkeypatch, count_products):
    # The stepped exponential at (x y, y) composed with e^t - 1: no Miller
    # power and no first-order solve.  The Miller power (1 + y(e^t - 1))^x
    # multiplied every earlier coefficient by a polynomial; here the only
    # polynomial products are the stepped exponential's running product (two
    # per order), and each kernel call of the composition multiplies by an
    # integer (2923 calls at order 24).
    def refused(*args, **kwargs):
        raise AssertionError("the bivariate Bell row must not run a first-order solve")

    kernel_calls = 0
    kernel = series._fma

    def counted(*args):
        nonlocal kernel_calls
        kernel_calls += 1
        return kernel(*args)

    monkeypatch.setattr(TruncatedSeries, "pow", refused)
    monkeypatch.setattr(series, "_first_order", refused)
    monkeypatch.setattr(series, "_fma", counted)
    gf_catalog.cache_clear()
    products = count_products(lambda: gf_catalog("bivariate_bell", 24))
    gf_catalog.cache_clear()
    assert kernel_calls <= 25**3 // 5
    assert products <= 2 * 24


def test_degenerate_exponential_is_a_running_product(count_products):
    # Two products per order: the step (n-1) lam and the running product
    # with (x - (n-1) lam).
    assert count_products(lambda: degenerate_exponential(24)) <= 2 * 24
    s = degenerate_exponential(24)
    for n in (0, 1, 7, 24):
        assert s.egf_coefficient(n) == generalized_falling(X, n, LAM)


# The total degree of each row's order-N coefficient, per unit of N.
DEGREE_PER_ORDER = {
    "lah_bell": 0,
    "lah_bell_poly": 1,
    "bell": 0,
    "bell_poly": 1,
    "bivariate_bell": 2,
    "bivariate_lah_bell": 2,
    "degenerate_lah_bell": 1,
    "degenerate_bell": 1,
    "laguerre_weighted": 1,
}


@pytest.mark.parametrize("name", GF_NAMES)
def test_catalog_rows_have_the_degree_they_state(name):
    # Exact, not just an upper bound: a row that stated more would refuse
    # admissible orders unseen.
    per = DEGREE_PER_ORDER[name]
    assert series._GF_BUILDERS[name][0] == per
    row = gf_catalog(name, 12)
    assert [(MultiPoly.const(1) * row.egf_coefficient(n)).total_degree() for n in range(13)] == [
        per * n for n in range(13)
    ]


@pytest.mark.parametrize("name", [name for name in GF_NAMES if DEGREE_PER_ORDER[name]])
def test_an_order_past_the_degree_limit_is_refused_before_the_first_coefficient(name):
    order = MAX_DEGREE // DEGREE_PER_ORDER[name] + 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^polynomial total degree past {MAX_DEGREE}$"):
        gf_catalog(name, order)
    # The stream the CLI writes from is refused at the call, before it is read.
    with pytest.raises(ValueError, match=f"^polynomial total degree past {MAX_DEGREE}$"):
        series._gf_terms(name, order)
    assert time.perf_counter() - start < 1


def test_degenerate_exponential_refuses_an_order_past_the_degree_limit():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^polynomial total degree past {MAX_DEGREE}$"):
        degenerate_exponential(70000)
    assert time.perf_counter() - start < 1
    for order in (-1, True):
        with pytest.raises(ValueError, match="^series order must be a nonnegative integer"):
            degenerate_exponential(order)


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
    with pytest.raises(ValueError, match="^unknown generating function 'zeta'"):
        series._gf_terms("zeta", 4)


# The rows that are one first-order solve each: the five whose exponent is
# rational in t, and the two Bell rows at step 0.
SOLVED_ROWS = (
    "lah_bell", "lah_bell_poly", "bivariate_lah_bell", "degenerate_lah_bell", "laguerre_weighted",
    "bell", "bell_poly",
)


@pytest.mark.parametrize("name", GF_NAMES)
def test_gf_terms_are_the_catalog_coefficients(name):
    # A solved row's coefficients come from a generator, made as they are
    # read; the two composed rows come built whole.
    terms = series._gf_terms(name, 20)
    assert isinstance(terms, Iterator) == (name in SOLVED_ROWS)
    gf_catalog.cache_clear()
    assert tuple(terms) == gf_catalog(name, 20)._egf


def test_catalog_names_keep_their_order():
    # `gf`'s choices and its --help list the names in this order.
    assert GF_NAMES == (
        "lah_bell",
        "lah_bell_poly",
        "bell",
        "bell_poly",
        "bivariate_bell",
        "bivariate_lah_bell",
        "degenerate_lah_bell",
        "degenerate_bell",
        "laguerre_weighted",
    )


def test_catalog_lah_bell_numbers():
    s = gf_catalog("lah_bell", 20)
    for n in range(21):
        assert s.egf_coefficient(n) == lah_bell_number(n)


def test_bell_row_writes_its_first_coefficient_before_the_rest():
    # The Bell row is streamed from its solver, so a large order costs
    # nothing before the first coefficient.
    start = time.perf_counter()
    assert next(iter(series._gf_terms("bell", 2000))) == 1
    assert time.perf_counter() - start < 1


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


def test_degenerate_lah_bell_row_is_the_composed_stepped_exponential():
    # The row is solved directly; the composition it replaced is the reference.
    reference = degenerate_exponential(40).compose(geometric_minus_one(40))
    assert gf_catalog("degenerate_lah_bell", 40) == reference


def test_bivariate_bell_row_is_the_miller_power():
    # The row is the composed stepped exponential; the Miller power of eq37's
    # (1 + y(e^t - 1))^x that it replaced is the reference.
    reference = (ser_one(40) + exp_t_minus_one(40).scale(Y)).pow(X)
    assert gf_catalog("bivariate_bell", 40) == reference


def test_degenerate_exponential_coefficients():
    s = degenerate_exponential(2)
    assert s.egf_coefficient(0) == 1
    assert s.egf_coefficient(1) == X
    assert s.egf_coefficient(2) == X**2 - LAM * X


def test_substitution_coherence():
    n = 12
    composed = gf_catalog("lah_bell", n).compose(one_minus_exp_neg_t(n))
    assert composed == gf_catalog("bell", n)
