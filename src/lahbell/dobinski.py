"""Certified evaluation of the infinite-series forms of the polynomial families.

Both number families admit a representation e^(-x) * sum_k c_k(n) x^k / k!
with nonnegative terms (c_k is a rising-factorial power or a plain power of
k).  Everything here is exact rational arithmetic; the only infinities are
the two series tails, and each is capped by a geometric bound once the
term-to-term ratio drops below 1/2 (the ratios are monotone decreasing, so
the first crossing covers the whole tail).  Both sums come from one walk that
keeps the partial sum for x = p/q as a single integer over q^k k!, so no term
pays a gcd; fractions are formed only at the chosen cutoffs.

The factor e^(-x) is enclosed through the reciprocal: the partial sums of
e^x grow monotonically and carry the same geometric tail bound, giving
e^x in [P, P + c] and hence e^(-x) in [1/(P+c), 1/P] with all endpoints
positive.  The product interval therefore shrinks monotonically as either
cutoff grows, which makes refinement nested: asking for a smaller eps always
returns a sub-interval of the wider answer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count, repeat
from math import factorial, prod
from typing import Iterable, Iterator, NamedTuple

from . import _EXPORTS
from .exact import Scalar, _as_coeff, _floor_log10, _index, _scalar_text, _shown

__all__ = _EXPORTS["dobinski"]

_ITERATION_CAP = 100_000

DOBINSKI_FAMILIES = ("lah_bell", "bell")


class PrecisionNotReached(Exception):
    """Raised instead of ever returning a bound looser than requested."""


# A NamedTuple class may not define __new__, so the fields live here and the
# certificate checks in the subclass below.
class _Certificate(NamedTuple):
    value: Fraction
    error_bound: Fraction
    requested_eps: Fraction
    series_terms: int
    exp_terms: int


class CertifiedDecimal(_Certificate):
    """Exact rational midpoint with a rigorous absolute error bound.

    The true value is guaranteed to lie in [value - error_bound,
    value + error_bound], and error_bound <= requested_eps.  The bound is
    checked in __new__, and _make, _replace, pickle and copy all build
    through it, so no tuple helper can make an invalid certificate.
    """

    __slots__ = ()

    def __new__(
        cls,
        value: Fraction,
        error_bound: Fraction,
        requested_eps: Fraction,
        series_terms: int,
        exp_terms: int,
    ) -> CertifiedDecimal:
        if error_bound < 0:
            raise ValueError("error bound must be nonnegative")
        if error_bound > requested_eps:
            raise ValueError("error bound exceeds the requested precision")
        return super().__new__(cls, value, error_bound, requested_eps, series_terms, exp_terms)

    @classmethod
    def _make(cls, iterable: Iterable) -> CertifiedDecimal:
        """The tuple helper, through __new__, so it and _replace keep the checks."""
        return cls(*iterable)

    @property
    def low(self) -> Fraction:
        return self.value - self.error_bound

    @property
    def high(self) -> Fraction:
        return self.value + self.error_bound

    def contains(self, exact: Scalar) -> bool:
        return self.low <= exact <= self.high

    def guaranteed_digits(self) -> int:
        """Decimal places d such that the rounded rendering is off by < 10^-d."""
        # A zero bound means the midpoint is exact; render at the precision
        # the request guaranteed rather than chasing unbounded digits.
        bound = self.error_bound if self.error_bound > 0 else self.requested_eps
        if bound <= 0:
            return 0
        # The largest d >= 0 with bound * 2 * 10^d <= 1.
        return max(0, _floor_log10(1 / (2 * bound)))

    def decimal(self) -> str:
        """The midpoint rounded to the guaranteed number of decimal places."""
        digits = self.guaranteed_digits()
        scaled = round(self.value * 10**digits)
        sign = "-" if scaled < 0 else ""
        body = _scalar_text(abs(scaled)).rjust(digits + 1, "0")
        if digits == 0:
            return sign + body
        return f"{sign}{body[:-digits]}.{body[-digits:]}"

    def error_bound_decimal(self) -> str:
        """The error bound rounded UP to three significant figures."""
        return _sci_upper(self.error_bound)

    def __str__(self) -> str:
        return f"{self.decimal()} (+/- {self.error_bound_decimal()})"


def _sci_upper(q: Fraction) -> str:
    if q < 0:
        raise ValueError("expected a nonnegative quantity")
    if q == 0:
        return "0"
    exponent = _floor_log10(q)
    # Round the mantissa up so the printed bound never understates the true one.
    mantissa = -(-q // Fraction(10) ** (exponent - 2))
    if mantissa == 1000:
        mantissa, exponent = 100, exponent + 1
    text = str(mantissa)
    return f"{text[0]}.{text[1:]}e{exponent}"


class _Cutoff(NamedTuple):
    """Partial sum and term k over one denominator q^k k!; tail <= 2 term ratio.

    The ratio is an unreduced (numerator, denominator) pair of positive ints.
    """

    k: int
    partial: int
    term: int
    denominator: int
    ratio: tuple[int, int]

    def sum(self) -> Fraction:
        return Fraction(self.partial, self.denominator)

    def tail(self) -> Fraction:
        num, den = self.ratio
        return Fraction(2 * self.term * num, self.denominator * den)

    def tail_within(self, target: Fraction) -> bool:
        num, den = self.ratio
        left = (2 * self.term, num, target.denominator)
        right = (target.numerator, self.denominator, den)
        # A product of three positive factors has between (sum of their bit
        # lengths) - 2 and that sum bits; clear misses skip the big products.
        if sum(v.bit_length() for v in left) - 2 > sum(v.bit_length() for v in right):
            return False
        return prod(left) <= prod(right)


def _partial_sums(weights: Iterable[int], x: Fraction, first: int) -> Iterator[_Cutoff]:
    """Walk sum_k weight(k) x^k / k! and yield each k >= first with term ratio <= 1/2.

    weights yields weight(0), weight(1), ... without end.  The ratio
    term(k+1)/term(k) = x weight(k+1) / ((k+1) weight(k)) comes from a
    one-term look-ahead of the weights.
    """
    if 2 * x > _ITERATION_CAP + 1:
        return  # a nondecreasing weight keeps every ratio >= x/(k+1) > 1/2 up to the cap
    p, q = x.numerator, x.denominator
    partial, power, denominator = 0, 1, 1
    weights = iter(weights)
    w_next = next(weights)
    for k in range(_ITERATION_CAP + 1):
        if k:
            power *= p
            denominator *= q * k
            partial *= q * k
        w, w_next = w_next, next(weights)
        term = w * power
        partial += term
        num, den = p * w_next, q * (k + 1) * w
        if k >= first and 2 * num <= den:
            yield _Cutoff(k, partial, term, denominator, (num, den))


def _first_within(cutoffs: Iterable[_Cutoff], target: Fraction) -> _Cutoff | None:
    return next((cut for cut in cutoffs if cut.tail_within(target)), None)


def _not_reached(what: str, x: Fraction, target: Fraction) -> PrecisionNotReached:
    message = f"{what} for x = {_shown(x)} did not reach tail <= {_shown(target)}"
    return PrecisionNotReached(f"{message} within {_ITERATION_CAP} terms")


def _certified_product(weights: Iterable[int], x: Fraction, eps: Fraction) -> CertifiedDecimal:
    """Enclose e^(-x) * sum_k weight(k) x^k / k! within eps.

    weights yields weight(0), weight(1), ... in turn.  weight(k) must be a
    positive integer for k >= 1 and nondecreasing, with weight(k+1)/weight(k)
    nonincreasing, so the term ratio is monotone nonincreasing for k >= 1
    and at least x/(k+1).  The series cutoff targets a quarter of eps and
    the exponential enclosure the rest, which caps the final interval width
    at eps/2.
    """
    tail_target = min(Fraction(1), eps / 4)
    cutoffs = _partial_sums(weights, x, 1)
    # The first cutoff with tail <= 1 bounds the full sum independently of
    # eps; it scales the exponential target so refinement stays nested.
    crude = _first_within(cutoffs, Fraction(1))
    series = None if crude is None else _first_within(chain([crude], cutoffs), tail_target)
    if series is None:
        raise _not_reached("series", x, tail_target)
    delta = eps / (4 * (crude.sum() + crude.tail()))
    exp = _first_within(_partial_sums(repeat(1), x, 0), delta)
    if exp is None:
        raise _not_reached("exponential enclosure", x, delta)
    partial, exp_partial = series.sum(), exp.sum()
    low = partial / (exp_partial + exp.tail())
    high = (partial + series.tail()) / exp_partial
    value, error = (low + high) / 2, (high - low) / 2
    if error > eps:
        raise PrecisionNotReached(f"final width {_shown(error)} exceeds eps = {_shown(eps)}")
    return CertifiedDecimal(value, error, eps, series_terms=series.k + 1, exp_terms=exp.k + 1)


def _validated(n: int, x: Scalar, eps: Scalar) -> tuple[Fraction, Fraction]:
    _index(n, "index")
    x = Fraction(_as_coeff(x))
    eps = Fraction(_as_coeff(eps))
    if x <= 0:
        message = "x must be positive, as the tail bounds need positive terms"
        raise ValueError(f"{message}, got {_shown(x)}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {_shown(eps)}")
    return x, eps


def _rising_weights(n: int) -> Iterator[int]:
    """The weights k(k+1)...(k+n-1) for k = 0, 1, 2, ..., each from the last.

    weight(0) is the empty product 1 for n = 0 and holds the factor 0 for
    n >= 1.  From weight(1) = n! on, weight(k+1) = weight(k)(k+n)/k.
    """
    yield 1 if n == 0 else 0
    weight = factorial(n)
    for k in count(1):
        yield weight
        weight = weight * (k + n) // k


def lah_bell_dobinski(n: int, x: Scalar, eps: Scalar) -> CertifiedDecimal:
    """Enclosure of e^(-x) * sum_k k(k+1)...(k+n-1) x^k / k! within eps.

    The sum equals the degree-n ordered-list-partition polynomial at x, which
    is how the enclosure is cross-checked.  term(k+1)/term(k) =
    x(k+n)/(k(k+1)), monotone decreasing for k >= 1.
    """
    x, eps = _validated(n, x, eps)
    return _certified_product(_rising_weights(n), x, eps)


def bell_dobinski(n: int, x: Scalar, eps: Scalar) -> CertifiedDecimal:
    """Enclosure of e^(-x) * sum_k k^n x^k / k! within eps.

    The sum equals the degree-n set-partition polynomial at x.
    term(k+1)/term(k) = x(k+1)^(n-1)/k^n, monotone decreasing for k >= 1.
    """
    x, eps = _validated(n, x, eps)
    return _certified_product((k**n for k in count()), x, eps)
