"""Exact polynomial arithmetic: canonical form, ring axioms, factorials, rendering."""

import operator
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import partial, reduce
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lahbell import exact
from lahbell.exact import (
    INDETERMINATES,
    MAX_DEGREE,
    MultiPoly,
    _falling_prefixes,
    _finish,
    _fma,
    falling_factorial,
    generalized_falling,
    rising_factorial,
)
from lahbell.dobinski import bell_dobinski, lah_bell_dobinski
from lahbell.enumeration import count_permutations_by_cycles, iter_ordered_partitions
from lahbell.families import FAMILIES, lah_bell_derivative, lah_bell_recurrence_step, poly_family
from lahbell.identities import oracle_records, run_suite
from lahbell.series import GF_NAMES, TruncatedSeries, gf_catalog, identity_t
from lahbell.triangles import TRIANGLE_KINDS, Triangle, bell_number, iter_rows, lah

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


@pytest.mark.parametrize(
    "exps",
    [(2.0, 0, 0, 0), (1.5, 0, 0, 0), (0, Fraction(1), 0, 0), (True, 0, 0, 0), (-1, 0, 0, 0), (1, 0, 0)],
)
def test_exponent_vectors_must_hold_nonnegative_ints(exps):
    with pytest.raises(ValueError, match="bad exponent vector"):
        MultiPoly({exps: 1})


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


def test_a_finish_without_a_keys_table_makes_no_second_table():
    # The canonical dict is the one table _finish builds: its peak is that
    # dict and the slack of its own growth (about 1.51x the dict).
    out = {}
    _fma(out, 1, (X + Y + ALPHA + 1) ** 12, 1)
    tracemalloc.start()
    try:
        result = _finish(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result._terms) == 455
    assert peak < 2 * sys.getsizeof(result._terms)


# -- a kernel reference outside the kernel ----------------------------------
# Every ring product goes through _fma, and so do substitute and evaluate, so
# a fault in _fma that is itself a ring homomorphism (dropping every term of
# alpha-degree >= 5 is reduction mod alpha^5) keeps every identity and ring
# axiom true.  Plain-int evaluation at integer points, read off terms(),
# sees it: a value is a product of powers, with no _fma in between.

POINTS = [(2, -1, 3, -2), (-3, 2, 1, 5), (1, -2, -3, 2)]


def at(poly, point):
    """poly at an integer point, from its terms alone: no _fma, no substitute."""
    total = 0
    for exps, coeff in poly.terms():
        for value, e in zip(point, exps):
            coeff *= value**e
        total += coeff
    return total


def sparse_poly(rng):
    """About 20 terms with exponents up to 10 in each indeterminate."""
    terms = {}
    for _ in range(20):
        exps = tuple(rng.randint(0, 10) for _ in INDETERMINATES)
        terms[exps] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 3))
    poly = MultiPoly(terms)
    assert all(poly.degree(name) >= 8 for name in INDETERMINATES)
    return poly


@pytest.mark.parametrize("seed", range(4))
def test_products_and_sums_match_plain_evaluation(seed):
    rng = random.Random(seed)
    a, b = sparse_poly(rng), sparse_poly(rng)
    for point in POINTS:
        assert at(a * b, point) == at(a, point) * at(b, point)
        assert at(a + b, point) == at(a, point) + at(b, point)


def test_series_product_matches_plain_evaluation():
    rng = random.Random(4)
    order = 5
    f = TruncatedSeries([sparse_poly(rng) for _ in range(order + 1)])
    g = TruncatedSeries([sparse_poly(rng) for _ in range(order + 1)])
    product = f * g
    for point in POINTS:
        for n in range(order + 1):
            # egf coefficients: c_n = sum_i C(n, i) f_i g_{n-i}
            expected = sum(
                comb(n, i) * at(f.egf_coefficient(i), point) * at(g.egf_coefficient(n - i), point)
                for i in range(n + 1)
            )
            assert at(product.egf_coefficient(n), point) == expected


# -- the packed layout against a tuple-keyed reference ----------------------
# The reference below keeps plain exponent tuples, as the layout's own tests
# must not: a carry from one packed field into the next would show as a term
# the reference does not have.  Exponents are drawn up to and across the
# degree limit.

small_or_huge = st.one_of(
    st.integers(0, 3), st.integers(MAX_DEGREE // 2 - 2, MAX_DEGREE // 2 + 2),
    st.integers(MAX_DEGREE - 2, MAX_DEGREE + 1),
)
wide_exponents = st.tuples(small_or_huge, small_or_huge, small_or_huge, small_or_huge)
valid_exponents = wide_exponents.filter(lambda exps: sum(exps) <= MAX_DEGREE)
references = st.dictionaries(valid_exponents, st.integers(-3, 3).filter(bool), max_size=4)


def reference_sum(a, b):
    out = dict(a)
    for exps, c in b.items():
        out[exps] = out.get(exps, 0) + c
    return {exps: c for exps, c in out.items() if c}


def reference_product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(map(operator.add, ea, eb))
            out[exps] = out.get(exps, 0) + ca * cb
    return out


def reference_image(exps, coeff, i, scale, j, power):
    """The term coeff*exps with indeterminate i bound to scale * (indeterminate j)^power."""
    e = exps[i]
    image = list(exps)
    image[i] = 0
    image[j] += power * e
    return tuple(image), coeff * scale**e


def matches(poly, reference):
    return dict(poly.terms()) == {exps: c for exps, c in reference.items() if c}


def test_exponent_vectors_past_the_degree_limit_are_refused():
    top = (0, 0, 0, MAX_DEGREE)
    assert MultiPoly({top: 1}).degree("alpha") == MAX_DEGREE
    for exps in [(0, 0, 0, MAX_DEGREE + 1), (1, 0, 0, MAX_DEGREE), (MAX_DEGREE, 1, 0, 0)]:
        with pytest.raises(ValueError, match=f"bad exponent vector: .* limit {MAX_DEGREE}"):
            MultiPoly({exps: 1})
        assert MultiPoly({top: 1}).coefficient(exps) == 0
    assert MultiPoly({top: 1}).coefficient((0, 0, 0)) == 0


def test_a_product_at_the_field_limit_carries_into_no_other_field():
    # alpha is the lowest field: at its limit one more alpha must raise, not
    # become a lam.
    below = MultiPoly({(0, 0, 0, MAX_DEGREE - 1): 1, (0, 0, 1, 0): 2})
    product = below * ALPHA
    assert list(product.terms()) == [((0, 0, 0, MAX_DEGREE), 1), ((0, 0, 1, 1), 2)]
    assert product.degree("lam") == 1 and product.total_degree() == MAX_DEGREE
    for overflowing in (lambda: product * ALPHA, lambda: product * (LAM - 1),
                        lambda: X ** (MAX_DEGREE + 1), lambda: product.substitute({"alpha": X**2})):
        with pytest.raises(ValueError, match=f"polynomial total degree past {MAX_DEGREE}"):
            overflowing()
    assert X**MAX_DEGREE == MultiPoly({(MAX_DEGREE, 0, 0, 0): 1})


@settings(max_examples=150, deadline=None)
@given(references, references)
def test_sums_and_products_match_a_tuple_keyed_reference(a, b):
    pa, pb = MultiPoly(a), MultiPoly(b)
    # Rendering order: descending total degree, then lex with x > y > lam > alpha.
    assert [exps for exps, _ in pa.terms()] == sorted(a, key=lambda e: (sum(e), e), reverse=True)
    assert matches(pa + pb, reference_sum(a, b))
    assert matches(pa - pb, reference_sum(a, {exps: -c for exps, c in b.items()}))
    product = reference_product(a, b)
    if any(sum(exps) > MAX_DEGREE for exps in product):
        with pytest.raises(ValueError, match="total degree past"):
            pa * pb
    else:
        assert matches(pa * pb, product)


@settings(max_examples=150, deadline=None)
@given(references, st.integers(0, 3))
def test_derivatives_match_a_tuple_keyed_reference(a, i):
    expected = {}
    for exps, c in a.items():
        if exps[i]:
            lowered = list(exps)
            lowered[i] -= 1
            expected[tuple(lowered)] = c * exps[i]
    assert matches(MultiPoly(a).derivative(INDETERMINATES[i]), expected)


@settings(max_examples=150, deadline=None)
@given(
    references, st.integers(0, 3), st.integers(0, 3), st.sampled_from([1, -1, 2]),
    st.integers(0, 2),
)
def test_substitution_matches_a_tuple_keyed_reference(a, i, j, scale, power):
    # Bind indeterminate i to scale * (indeterminate j)^power: a power past 1
    # can carry a term's total degree across the limit.
    value = scale * MultiPoly.var(INDETERMINATES[j]) ** power
    images = [reference_image(exps, c, i, scale, j, power) for exps, c in a.items()]
    if any(sum(exps) > MAX_DEGREE for exps, _ in images):
        with pytest.raises(ValueError, match="total degree past"):
            MultiPoly(a).substitute({INDETERMINATES[i]: value})
        return
    expected = {}
    for exps, c in images:
        expected[exps] = expected.get(exps, 0) + c
    assert matches(MultiPoly(a).substitute({INDETERMINATES[i]: value}), expected)


def test_a_bool_is_no_exact_scalar():
    # A bool is an int to Python, but not a coefficient here: it gets the
    # TypeError of any other inexact scalar, wherever it enters.
    for value in (True, False):
        for build in (
            lambda: MultiPoly.const(value),
            lambda: MultiPoly({(1, 0, 0, 0): value}),
            lambda: X.evaluate({"x": value}),
            lambda: TruncatedSeries([1, value]),
            lambda: TruncatedSeries([1, 1]).scale(value),
            lambda: X + value,
            lambda: value - X,
            lambda: X * value,
        ):
            with pytest.raises(TypeError):
                build()
    assert MultiPoly.const(1) != True  # noqa: E712 - the comparison is the point
    assert MultiPoly.const(1) == 1


# Every entry point that takes an index, length, order or exponent: its id,
# the noun its message names, and a call that passes it the value.
_INDEX_ENTRIES = [
    ("MultiPoly.__pow__", "polynomial exponent", lambda v: X**v),
    ("generalized_falling", "factorial length", lambda v: generalized_falling(X, v, LAM)),
    ("falling_factorial", "factorial length", lambda v: falling_factorial(X, v)),
    ("rising_factorial", "factorial length", lambda v: rising_factorial(X, v)),
    ("TruncatedSeries-order", "series order", lambda v: TruncatedSeries([1], order=v)),
    ("TruncatedSeries.__pow__", "series power", lambda v: TruncatedSeries([1, 1]) ** v),
    ("identity_t", "series order", identity_t),
    ("gf_catalog", "order", partial(gf_catalog, "bell")),
    ("TruncatedSeries.egf_coefficient", "coefficient index",
     lambda v: gf_catalog("lah_bell", 5).egf_coefficient(v)),
    ("TruncatedSeries.coefficient", "coefficient index",
     lambda v: gf_catalog("lah_bell", 5).coefficient(v)),
    *((f"poly_family-{name}", "family index", partial(poly_family, name)) for name in FAMILIES),
    ("lah_bell_recurrence_step", "family index", lambda v: lah_bell_recurrence_step(v, [])),
    ("lah_bell_derivative", "family index", lambda v: lah_bell_derivative(v, [])),
    ("run_suite", "max_n", lambda v: run_suite(["eq3"], v)),
    ("oracle_records", "max_n", oracle_records),
    ("count_permutations_by_cycles", "element count", count_permutations_by_cycles),
    ("iter_ordered_partitions", "element count", lambda v: next(iter_ordered_partitions(v))),
    ("lah_bell_dobinski", "index", lambda v: lah_bell_dobinski(v, 1, Fraction(1, 10))),
    ("bell_dobinski", "index", lambda v: bell_dobinski(v, 1, Fraction(1, 10))),
    ("iter_rows", "row index", lambda v: next(iter_rows("lah", v))),
    ("Triangle.value-n", "triangle index", lambda v: lah(v, 0)),
    ("Triangle.value-k", "triangle index", lambda v: lah(3, v)),
    ("Triangle.row", "row index", lambda v: Triangle("stirling2").row(v)),
    ("bell_number", "row index", bell_number),
]


@pytest.mark.parametrize("value", [True, 2.5, -1, "3"], ids=repr)
@pytest.mark.parametrize(
    "what, call",
    [entry[1:] for entry in _INDEX_ENTRIES],
    ids=[entry[0] for entry in _INDEX_ENTRIES],
)
def test_every_index_is_a_nonnegative_int_and_never_a_bool(what, call, value):
    with pytest.raises(ValueError) as raised:
        call(value)
    assert str(raised.value) == f"{what} must be a nonnegative integer, got {value!r}"


def test_a_coefficient_index_past_the_order_names_the_tracked_range():
    series = gf_catalog("lah_bell", 5)
    for read in (series.egf_coefficient, series.coefficient):
        with pytest.raises(ValueError, match=r"^coefficient index 6 outside tracked range 0\.\.5$"):
            read(6)


# Every lookup by name, the noun its message names, the names it knows and a
# call that passes it a name.
_NAME_ENTRIES = [
    ("MultiPoly.var", "indeterminate", INDETERMINATES, MultiPoly.var),
    ("MultiPoly.degree", "indeterminate", INDETERMINATES, X.degree),
    ("MultiPoly.derivative", "indeterminate", INDETERMINATES, X.derivative),
    ("MultiPoly.substitute", "indeterminate", INDETERMINATES, lambda name: X.substitute({name: 1})),
    ("Triangle", "triangle kind", TRIANGLE_KINDS, Triangle),
    ("iter_rows", "triangle kind", TRIANGLE_KINDS, lambda name: iter_rows(name, 3)),
    ("gf_catalog", "generating function", GF_NAMES, lambda name: gf_catalog(name, 3)),
    ("poly_family", "family", FAMILIES, lambda name: poly_family(name, 3)),
]


@pytest.mark.parametrize(
    "what, names, call",
    [entry[1:] for entry in _NAME_ENTRIES],
    ids=[entry[0] for entry in _NAME_ENTRIES],
)
def test_every_unknown_name_is_refused_by_one_rule(what, names, call):
    for name in ("z", "", 1, None):
        with pytest.raises(ValueError) as raised:
            call(name)
        assert str(raised.value) == f"unknown {what} {name!r}, expected one of {names}"
    # A name no table can hold is refused by the lookup itself.
    with pytest.raises(TypeError):
        call(["x"])


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: falling_factorial(X, 70000),
        lambda: rising_factorial(X, 70000),
        lambda: falling_factorial(X * Y, MAX_DEGREE // 2 + 1),
        lambda: generalized_falling(X + LAM, MAX_DEGREE + 1, Fraction(1, 2)),
        lambda: generalized_falling(X, 70000, LAM),
        lambda: (X + 1) ** 70000,
        lambda: (X * Y + 1) ** (MAX_DEGREE // 2 + 1),
    ],
    ids=["falling", "rising", "falling-degree-2", "constant-step", "symbolic-step", "pow",
         "pow-degree-2"],
)
def test_a_product_past_the_degree_limit_is_refused_before_it_starts(build):
    # A product of nonzero polynomials has the sum of their degrees, so each
    # of these is refused at once, not after tens of thousands of products.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^polynomial total degree past {MAX_DEGREE}$"):
        build()
    assert time.perf_counter() - start < 1


def test_the_degree_precheck_refuses_no_product_it_cannot_bound():
    # A factor p - k*step is zero when p = k*step, and then the product is 0
    # however long it is.  A power exactly at the limit is built.
    assert generalized_falling(X, 70000, X) == 0
    assert generalized_falling(3 * X, 70000, X) == 0
    assert falling_factorial(5, 70000) == 0
    assert (X * Y) ** (MAX_DEGREE // 2) == MultiPoly({(MAX_DEGREE // 2,) * 2 + (0, 0): 1})


@settings(max_examples=100, deadline=None)
@given(polys, polys, st.integers(0, 4), st.integers(0, 6))
def test_generalized_falling_is_refused_exactly_past_the_limit(q, step, k, n):
    # p = q + k*step: when q is of lower degree than step, the factor at k
    # falls to q's degree (p = x + 1, step = x gives degree n - 1, not n), so
    # only the exact degree draws the line.
    p = q + k * step
    product = reduce(operator.mul, (p - i * step for i in range(n)), MultiPoly.const(1))
    with patch.object(exact, "MAX_DEGREE", product.total_degree()):
        assert generalized_falling(p, n, step) == product
    if not product.is_zero:
        with patch.object(exact, "MAX_DEGREE", product.total_degree() - 1):
            with pytest.raises(ValueError, match="^polynomial total degree past"):
                generalized_falling(p, n, step)


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


def test_power_rejects_a_bool_exponent():
    with pytest.raises(ValueError, match="polynomial exponent must be a nonnegative integer"):
        X**True


def test_powers_take_no_product_with_one(count_products, monkeypatch):
    # The square-and-multiply chain starts from the base squared up to e's
    # lowest set bit, so no product is spent on the ring's one.
    def chain(e):
        return e.bit_length() + bin(e).count("1") - 2

    assert count_products(lambda: X**0) == 0
    for e in range(1, 65):
        assert count_products(lambda: (X + 1) ** e) == chain(e), e
        assert [c for _, c in ((X + 1) ** e).terms()] == [comb(e, k) for k in range(e + 1)]

    calls = 0
    multiply = TruncatedSeries.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return multiply(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    one_plus_t = TruncatedSeries([1, 1], order=6)
    assert one_plus_t**0 == TruncatedSeries([1], order=6) and calls == 0
    for e in range(1, 65):
        calls = 0
        power = one_plus_t**e
        assert calls == chain(e), e
        assert power.coefficients() == tuple(comb(e, n) for n in range(7))


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


def test_rendering_passes_the_int_str_digit_limit():
    # Coefficients past the interpreter's default limit of 4300 digits are
    # written through Decimal, and the limit is left as it was.
    big = 7 * 10**4400 + 1
    poly = X**3 - big * X**2 + Fraction(big, 3) * Y - Fraction(1, big) - big
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        lifted = str(poly), repr(poly)
        sys.set_int_max_str_digits(4300)
        assert (str(poly), repr(poly)) == lifted
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    assert lifted[0].startswith("x^3 - 7000")
    assert lifted[0].count("/3*y - ") == 1


@pytest.mark.parametrize("digits", [*range(1, 46), 99, 100, 4300, 4301, 10**4, 10**5])
def test_a_shown_scalar_is_its_text_cut_to_40_characters(digits):
    # _shown makes only the leading digits; the whole text is the reference.
    rng = random.Random(digits)
    magnitudes = [rng.randrange(10 ** (digits - 1), 10**digits)]
    if digits <= 4301:
        magnitudes += [10 ** (digits - 1), 10**digits - 1]
    for magnitude in magnitudes:
        for numerator in (magnitude, -magnitude):
            for denominator in (1, 3, 10**38 + 1, 7 * 10**44 + 1):
                value = numerator if denominator == 1 else Fraction(numerator, denominator)
                text = exact._scalar_text(value)
                expected = text if len(text) <= 40 else text[:40] + "..."
                assert exact._shown(value) == expected


def test_a_huge_scalar_is_shown_without_being_written_whole():
    value = -(10**99999)
    start = time.perf_counter()
    shown = exact._shown(value)
    assert time.perf_counter() - start < 0.05
    assert shown == "-1" + "0" * 38 + "..."
    assert exact._shown(Fraction(1, 3 * 10**99999 + 1)) == "1/3" + "0" * 37 + "..."


@pytest.mark.parametrize("j", [0, 1, 40, 5000])
def test_floor_log10_brackets_numbers_next_to_powers_of_ten(j):
    # The bit-length estimate is nearest to wrong next to a power of ten.
    scale = 10**j
    for k in (*range(60), 99, 100, 101, 1000, 4299, 4300, 4301, 4999, 5000):
        for n in filter(None, (10**k - 1, 10**k, 10**k + 1)):
            for q in (n * scale, Fraction(n, scale), Fraction(scale, n), Fraction(n, 3 * scale)):
                e = exact._floor_log10(q)
                assert Fraction(10) ** e <= q < Fraction(10) ** (e + 1), (k, n - 10**k, q)


def test_shown_quotes_numbers_next_to_forty_digits():
    cases = {
        10**40 - 1: "9" * 40,
        10**40: "1" + "0" * 39 + "...",
        10**41 + 7: "1" + "0" * 39 + "...",
        -(10**40 - 1): "-" + "9" * 39 + "...",
        Fraction(1, 10**40 - 1): "1/" + "9" * 38 + "...",
        Fraction(1, 10**40): "1/1" + "0" * 37 + "...",
        Fraction(7, 10**41 + 7): "7/1" + "0" * 37 + "...",
        Fraction(10**40 - 1, 10**41 + 7): "9" * 40 + "...",
    }
    for value, text in cases.items():
        assert exact._shown(value) == text, value


def test_rendering_is_deterministic():
    assert str(X**2 + 2 * X) == "x^2 + 2*x"
    assert str(MultiPoly.zero()) == "0"
    assert str(1 - X) == "-x + 1"
    assert str(X - 1) == "x - 1"
    assert str(Fraction(1, 2) * X) == "1/2*x"
    assert str(MultiPoly.const(Fraction(-3, 4))) == "-3/4"
    assert str(falling_factorial(X, 3)) == "x^3 - 3*x^2 + 2*x"
    assert str(X * Y**2 + X**2 - LAM) == "x*y^2 + x^2 - lam"
    assert str(LAM * ALPHA + Y**2 + ALPHA * X + X * LAM + X * Y) == (
        "x*y + x*lam + x*alpha + y^2 + lam*alpha"
    )
