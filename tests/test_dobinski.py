"""Certified series evaluation: enclosures, refinement, rendering, validation."""

import copy
import pickle
import sys
from fractions import Fraction
from itertools import islice, repeat
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lahbell import dobinski
from lahbell.dobinski import (
    CertifiedDecimal,
    PrecisionNotReached,
    bell_dobinski,
    lah_bell_dobinski,
)
from lahbell.families import bell_poly, lah_bell_poly
from lahbell.triangles import bell_number, lah_bell_number

EPS20 = Fraction(1, 10**20)


def exact_value(poly, x):
    return poly.evaluate({"x": x}).as_rational()


def test_pinned_example():
    got = lah_bell_dobinski(3, Fraction(1, 2), EPS20)
    assert got.contains(Fraction(37, 8))
    assert got.error_bound <= EPS20
    assert got.decimal().startswith("4.625")
    assert got.series_terms > 0 and got.exp_terms > 0


def test_integer_argument_recovers_numbers():
    for n in range(9):
        got = lah_bell_dobinski(n, 1, Fraction(1, 10**12))
        assert got.contains(lah_bell_number(n))
        gotb = bell_dobinski(n, 1, Fraction(1, 10**12))
        assert gotb.contains(bell_number(n))


@pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(1), Fraction(3)])
def test_enclosures_contain_exact_polynomial_values(x):
    for n in range(9):
        exact_lb = exact_value(lah_bell_poly(n), x)
        got = lah_bell_dobinski(n, x, Fraction(1, 10**12))
        assert got.contains(exact_lb)
        exact_b = exact_value(bell_poly(n), x)
        gotb = bell_dobinski(n, x, Fraction(1, 10**12))
        assert gotb.contains(exact_b)


def test_monotone_refinement():
    exact = exact_value(lah_bell_poly(5), Fraction(3))
    results = [
        lah_bell_dobinski(5, 3, Fraction(1, 10**k)) for k in (5, 10, 20)
    ]
    for got in results:
        assert got.contains(exact)
    assert results[0].error_bound >= results[1].error_bound >= results[2].error_bound
    for coarse, fine in zip(results, results[1:]):
        assert coarse.low <= fine.low and fine.high <= coarse.high


@pytest.mark.parametrize("evaluator", [lah_bell_dobinski, bell_dobinski])
def test_monotone_refinement_at_large_x(evaluator):
    coarse = evaluator(3, 461, Fraction(1, 10**10))
    fine = evaluator(3, 461, Fraction(1, 10**30))
    assert fine.error_bound <= coarse.error_bound
    assert coarse.low <= fine.low and fine.high <= coarse.high
    exact_poly = lah_bell_poly(3) if evaluator is lah_bell_dobinski else bell_poly(3)
    assert fine.contains(exact_value(exact_poly, Fraction(461)))


@pytest.mark.parametrize("n", range(7))
def test_carried_weights_are_the_rising_products(n):
    carried = list(islice(dobinski._rising_weights(n), 41))
    assert carried == [prod(range(k, k + n)) for k in range(41)]


def test_walk_fails_fast_only_when_no_ratio_can_reach_one_half(monkeypatch):
    # Every ratio in use is at least x/(k+1); with k capped at 20 a ratio of
    # 1/2 needs 2x <= 21.
    monkeypatch.setattr(dobinski, "_ITERATION_CAP", 20)

    def exp_cutoffs(x):
        return [cut.k for cut in dobinski._partial_sums(repeat(1), x, 0)]

    assert exp_cutoffs(Fraction(21, 2)) == [20]
    assert exp_cutoffs(Fraction(11)) == []
    with pytest.raises(PrecisionNotReached, match="series for x = 11 did not reach"):
        bell_dobinski(0, 11, EPS20)


def fraction_loop_enclosure(weight, ratio, x, eps):
    """The enclosure summed one Fraction per term: the reference for the walk."""
    tail_target = min(Fraction(1), eps / 4)
    partial, power_over_factorial, crude, k = Fraction(0), Fraction(1), None, 0
    while True:
        term = weight(k) * power_over_factorial
        partial += term
        if k >= 1 and ratio(k) <= Fraction(1, 2):
            tail = 2 * term * ratio(k)
            if crude is None and tail <= 1:
                crude = partial + tail
            if tail <= tail_target:
                break
        k += 1
        power_over_factorial = power_over_factorial * x / k
    delta = eps / (4 * crude)
    exp_partial, exp_term, m = Fraction(1), Fraction(1), 0
    while not (x / (m + 1) <= Fraction(1, 2) and 2 * exp_term * x / (m + 1) <= delta):
        m += 1
        exp_term = exp_term * x / m
        exp_partial += exp_term
    low = partial / (exp_partial + 2 * exp_term * x / (m + 1))
    high = (partial + tail) / exp_partial
    return (low + high) / 2, (high - low) / 2, k + 1, m + 1


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["lah_bell", "bell"]),
    st.integers(0, 8),
    st.builds(Fraction, st.integers(1, 120), st.integers(1, 7)),
    st.one_of(
        st.sampled_from([Fraction(100), Fraction(4), Fraction(1)]),
        st.integers(1, 80).map(lambda e: Fraction(1, 10**e)),
    ),
)
def test_walk_matches_the_fraction_loop(family, n, x, eps):
    if family == "lah_bell":
        got = lah_bell_dobinski(n, x, eps)
        weight, ratio = (lambda k: prod(range(k, k + n))), (lambda k: x * (k + n) / (k * (k + 1)))
    else:
        got = bell_dobinski(n, x, eps)
        weight, ratio = (lambda k: k**n), (lambda k: x * Fraction((k + 1) ** (n - 1), k**n))
        if n == 0:
            ratio = lambda k: x / (k + 1)  # noqa: E731
    expected = fraction_loop_enclosure(weight, ratio, x, eps)
    assert (got.value, got.error_bound, got.series_terms, got.exp_terms) == expected


def test_input_validation():
    with pytest.raises(ValueError):
        lah_bell_dobinski(-1, 1, EPS20)
    with pytest.raises(ValueError):
        lah_bell_dobinski(2, 0, EPS20)
    with pytest.raises(ValueError):
        bell_dobinski(2, -1, EPS20)
    with pytest.raises(ValueError):
        bell_dobinski(2, 1, 0)


def test_certificate_invariants_enforced():
    with pytest.raises(ValueError, match="^error bound must be nonnegative$"):
        CertifiedDecimal(Fraction(1), Fraction(-1), Fraction(1), 1, 1)
    with pytest.raises(ValueError, match="^error bound exceeds the requested precision$"):
        CertifiedDecimal(Fraction(1), Fraction(1), Fraction(1, 2), 1, 1)


def test_certificate_helpers_keep_the_invariants():
    got = lah_bell_dobinski(3, Fraction(1, 2), EPS20)
    with pytest.raises(ValueError, match="^error bound exceeds the requested precision$"):
        got._replace(error_bound=Fraction(1))
    with pytest.raises(ValueError, match="^error bound must be nonnegative$"):
        CertifiedDecimal._make((Fraction(1), Fraction(-1), Fraction(1), 1, 1))
    assert got._replace(series_terms=99) == (*got[:3], 99, got.exp_terms)
    assert type(CertifiedDecimal._make(got)) is CertifiedDecimal
    for twin in (pickle.loads(pickle.dumps(got)), copy.copy(got), copy.deepcopy(got)):
        assert type(twin) is CertifiedDecimal and twin == got


@pytest.mark.parametrize("evaluate", [lah_bell_dobinski, bell_dobinski])
@pytest.mark.parametrize(
    "x, eps",
    [(True, Fraction(1, 10**5)), (1, 1e-5), (1, "1/100000")],
    ids=["bool x", "float eps", "string eps"],
)
def test_x_and_eps_must_be_exact(evaluate, x, eps):
    # Fraction() takes each of these: True as 1, 1e-5 as the nearest binary
    # fraction, and the string.  The ring's exact-scalar rule takes none.
    with pytest.raises(TypeError, match="^not an exact scalar: "):
        evaluate(2, x, eps)


@pytest.mark.parametrize("evaluate", [lah_bell_dobinski, bell_dobinski])
def test_bool_index_rejected(evaluate):
    with pytest.raises(ValueError, match="^index must be a nonnegative integer, got True$"):
        evaluate(True, 1, EPS20)


def test_record_repr_is_stable():
    # Recorded when the record was a frozen dataclass.
    got = lah_bell_dobinski(3, Fraction(7, 3), Fraction(1, 10**5))
    assert repr(got) == (
        "CertifiedDecimal(value=Fraction(4044570401959579290783084512081380483298335522783, "
        "68124392307983274382886919526576509984968260482), error_bound=Fraction("
        "4507754932746075829146973838163678939091, 68124392307983274382886919526576509984968260482), "
        "requested_eps=Fraction(1, 100000), series_terms=19, exp_terms=18)"
    )


def test_record_construction_equality_and_immutability():
    fields = (Fraction(1, 2), Fraction(1, 10), Fraction(1, 5), 3, 4)
    positional = CertifiedDecimal(*fields)
    keyword = CertifiedDecimal(
        value=fields[0], error_bound=fields[1], requested_eps=fields[2], series_terms=3, exp_terms=4
    )
    assert positional == keyword
    assert hash(positional) == hash(keyword)
    assert (positional.value, positional.exp_terms) == (Fraction(1, 2), 4)
    with pytest.raises(AttributeError):
        positional.value = Fraction(1)
    with pytest.raises(AttributeError):
        positional.extra = 1


def test_decimal_rendering():
    c = CertifiedDecimal(Fraction(37, 8), Fraction(1, 10**6), Fraction(1, 10**5), 3, 4)
    assert c.guaranteed_digits() == 5
    assert c.decimal() == "4.62500"
    assert c.error_bound_decimal() == "1.00e-6"
    assert c.low == Fraction(37, 8) - Fraction(1, 10**6)
    assert c.high == Fraction(37, 8) + Fraction(1, 10**6)


def test_decimal_rendering_edge_cases():
    wide = CertifiedDecimal(Fraction(1, 3), Fraction(1, 3), Fraction(1), 1, 1)
    assert wide.guaranteed_digits() == 0
    assert wide.decimal() == "0"
    assert wide.error_bound_decimal() == "3.34e-1"
    negative = CertifiedDecimal(Fraction(-5, 4), Fraction(1, 10**3), Fraction(1, 100), 1, 1)
    assert negative.decimal() == "-1.25"
    assert str(negative) == "-1.25 (+/- 1.00e-3)"
    exact = CertifiedDecimal(Fraction(2), Fraction(0), Fraction(1, 100), 1, 1)
    assert exact.decimal() == "2.0"
    assert exact.error_bound_decimal() == "0"


def test_rendering_is_exact_at_any_exponent():
    def bound(q):
        return CertifiedDecimal(Fraction(0), q, q, 1, 1)

    assert bound(Fraction(1, 10**400)).error_bound_decimal() == "1.00e-400"
    assert bound(Fraction(1, 10**400)).guaranteed_digits() == 399
    # Just above 10^-5 but below the float 1e-5 (which lies above 10^-5):
    # the mantissa must round up to 1.01.
    assert bound(Fraction(1, 10**5) * (1 + Fraction(1, 10**30))).error_bound_decimal() == "1.01e-5"
    assert bound(Fraction(999999, 10**6)).error_bound_decimal() == "1.00e0"
    assert bound(Fraction(10**50 + 1)).error_bound_decimal() == "1.01e50"
    for e in range(-60, 61):
        q = Fraction(10) ** e
        assert bound(q).error_bound_decimal() == f"1.00e{e}"
        assert bound(q * Fraction(9999, 10000)).error_bound_decimal() == f"1.00e{e}"
        digits = bound(q).guaranteed_digits()
        assert digits == max(0, -e - 1)


def test_rounded_rendering_stays_within_digit_promise():
    got = lah_bell_dobinski(4, Fraction(1, 2), Fraction(1, 10**8))
    digits = got.guaranteed_digits()
    rendered = Fraction(got.decimal())
    exact = exact_value(lah_bell_poly(4), Fraction(1, 2))
    assert abs(rendered - exact) < Fraction(1, 10**digits)


def test_precision_not_reached_is_an_exception():
    assert issubclass(PrecisionNotReached, Exception)


def test_decimal_renders_past_the_int_str_digit_limit():
    # The library renders through Decimal, so 4401 places print at the
    # interpreter's default limit of 4300 digits and leave it unchanged.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        result = lah_bell_dobinski(1, Fraction(1), Fraction(1, 10**4400))
        text, bound = result.decimal(), result.error_bound_decimal()
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    # BL_1(1) = 1, and the bound is far below half a unit in the last place.
    assert text == "1." + "0" * 4401
    assert bound.endswith("e-4402")


def test_a_message_quotes_a_long_value_cut_to_40_characters():
    # At the interpreter's default digit limit too: the value is written
    # through Decimal, never whole.
    huge = Fraction(10**99999)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as refused:
            lah_bell_dobinski(2, -huge, EPS20)
        with pytest.raises(PrecisionNotReached) as not_reached:
            bell_dobinski(2, huge, EPS20)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(refused.value) == (
        "x must be positive, as the tail bounds need positive terms, got -1" + "0" * 38 + "..."
    )
    assert str(not_reached.value) == (
        "series for x = 1" + "0" * 39 + "... did not reach tail <= 1/400000000000000000000"
        " within 100000 terms"
    )
    # A short value keeps every byte.
    with pytest.raises(ValueError, match="^eps must be positive, got -1/3$"):
        lah_bell_dobinski(2, 1, Fraction(-1, 3))
