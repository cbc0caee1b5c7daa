"""Truncated formal power series over an exact coefficient ring.

A :class:`TruncatedSeries` of order N stores the exponential-generating-function
coefficients e_n = n! * a_n of t^0 .. t^N, where a_n is the ordinary
coefficient; coefficients are integers, rationals or
:class:`~lahbell.exact.MultiPoly` values.  All series here are formal, so
convergence never enters; the only analytic-looking operations (exp, log1p
and the symbolic power) are one first-order coefficient recurrence.

Every catalog series has integer (or integer-polynomial) egf coefficients.  In
that form the product is the binomial convolution sum_i C(n,i) a_i b_{n-i},
exp, log1p, composition and the symbolic power are built from such
convolutions, and none of them divides, so integer input stays integer and no
coefficient pays a gcd.  The four Lah-Bell rows share one generating
function, (1 + step t/(1-t))^(point/step), and the Laguerre row's exponent is
rational in t too: each such g solves a g' = b' g for polynomials a and b of
degree at most 2, and is solved from that equation directly, with at most
four multiply-accumulates per coefficient and no dense exp, power, product or
composition.  Every convolution sum
accumulates in place through the multiply-accumulate kernel of
:mod:`lahbell.exact`, and all the coefficients one product, composition or
recurrence finishes share one exponent vector per distinct monomial, through
a key table that lives only for that operation.  The constructor and
:meth:`TruncatedSeries.coefficient` speak ordinary coefficients; the
conversion happens at that boundary.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial
from operator import add, mul
from typing import Callable, Iterable, Iterator, Sequence

from . import _EXPORTS
from .exact import _ALPHA, _LAM, _X, _Y, MultiPoly, PolyLike, _as_coeff, _degree_index, _finish
from .exact import _fma, _index, _named, _power

__all__ = _EXPORTS["series"]


def _as_ring(value: PolyLike) -> PolyLike:
    return value if isinstance(value, MultiPoly) else _as_coeff(value)


def _has_poly(*coeffs: Iterable[PolyLike]) -> bool:
    """Whether a MultiPoly enters: the ring an accumulation finishes in."""
    return any(type(c) is MultiPoly for seq in coeffs for c in seq)


class TruncatedSeries:
    """Degree-capped power series with exact coefficients, stored in egf form.

    Binary operations require both operands to have the same order; a
    mismatch is a construction bug, not something to hide behind silent
    truncation, so it raises.
    """

    __slots__ = ("_egf",)

    def __init__(self, coeffs: Sequence[PolyLike], order: int | None = None):
        """A series from its ordinary coefficients a_0, a_1, ..., zero-padded to `order`."""
        coeffs = [_as_ring(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValueError("series needs at least the constant coefficient")
            order = len(coeffs) - 1
        if len(coeffs) > _index(order, "series order") + 1:
            raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
        coeffs.extend([0] * (order + 1 - len(coeffs)))
        self._egf = tuple(_as_ring(factorial(n) * c) for n, c in enumerate(coeffs))

    # -- access --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._egf) - 1

    def egf_coefficient(self, n: int) -> PolyLike:
        """n! times the ordinary coefficient of t^n, as stored."""
        if _index(n, "coefficient index") > self.order:
            raise ValueError(f"coefficient index {n} outside tracked range 0..{self.order}")
        return self._egf[n]

    def coefficient(self, n: int) -> PolyLike:
        """Ordinary coefficient of t^n."""
        return _as_ring(self.egf_coefficient(n) * Fraction(1, factorial(n)))

    def coefficients(self) -> tuple[PolyLike, ...]:
        return tuple(self.coefficient(n) for n in range(len(self._egf)))

    def _require_same_order(self, other: TruncatedSeries) -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    # -- ring operations -------------------------------------------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        return _from_egf(_as_ring(a + b) for a, b in zip(self._egf, other._egf))

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        return _from_egf(_as_ring(a - b) for a, b in zip(self._egf, other._egf))

    def __neg__(self) -> TruncatedSeries:
        return _from_egf(-c for c in self._egf)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        """Binomial convolution: c_n = sum_i C(n,i) a_i b_{n-i}."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        a, b = self._egf, other._egf
        poly = _has_poly(a, b)
        support = [i for i, c in enumerate(a) if c != 0]
        b_nonzero = [c != 0 for c in b]
        keys: dict = {}
        out = []
        for n in range(len(a)):
            acc: dict = {}
            for i in support:
                if i > n:
                    break
                if b_nonzero[n - i]:
                    _fma(acc, comb(n, i), a[i], b[n - i])
            out.append(_finish(acc, poly, keys))
        return _from_egf(out)

    def scale(self, c: PolyLike) -> TruncatedSeries:
        """Multiply every coefficient by a fixed ring element."""
        c = _as_ring(c)
        return _from_egf(_as_ring(c * coeff) for coeff in self._egf)

    def __pow__(self, k: int) -> TruncatedSeries:
        return _power(self, k) if _index(k, "series power") else ser_one(self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(a == b for a, b in zip(self._egf, other._egf))

    __hash__ = None

    # -- transcendental operations (coefficient recurrences) -------------

    def exp(self) -> TruncatedSeries:
        """exp(f) for f with zero constant term.

        g = exp f solves g' = f' g with g_0 = 1.
        """
        f = self._egf
        if f[0] != 0:
            raise ValueError("exp requires a zero constant term")
        return _from_egf(_first_order(1, b=f))

    def log1p(self) -> TruncatedSeries:
        """log(1 + f) for f with zero constant term; the inverse of :meth:`exp`.

        h = log(1 + f) solves (1 + f) h' = f' with h_0 = 0.
        """
        f = self._egf
        if f[0] != 0:
            raise ValueError("log1p requires a zero constant term")
        return _from_egf(_first_order(0, a=f, c=f))

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """Exact composition self(inner(t)) for inner with zero constant term.

        With P_k = inner^k / k!, self(inner) = sum_k f_k P_k over the egf
        coefficients f_k of self, the P_k coming from :func:`_divided_powers`.
        """
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("inner must be a TruncatedSeries")
        self._require_same_order(inner)
        if inner._egf[0] != 0:
            raise ValueError("composition requires inner constant term zero")
        f = self._egf
        poly = _has_poly(f, inner._egf)
        acc: list[dict] = [{} for _ in f]
        keys: dict = {}
        for k, power in enumerate(_divided_powers(inner)):
            if k == 0 or f[k] == 0:
                continue
            for n in range(k, len(f)):
                p = power._egf[n]
                if p != 0:
                    _fma(acc[n], 1, f[k], p)
        return _from_egf([f[0], *(_finish(terms, poly, keys) for terms in acc[1:])])

    def pow(self, exponent: PolyLike) -> TruncatedSeries:
        """Symbolic power g = f^e for f with constant term 1, by J.C.P. Miller's recurrence.

        g = f^e solves f g' = e f' g with g_0 = 1: no log, exp or division,
        so integer (polynomial) input stays integer.
        """
        f = self._egf
        if f[0] != 1:
            raise ValueError("symbolic power requires constant term 1")
        e = _as_ring(exponent)
        return _from_egf(_first_order(1, b=[e * c for c in f], a=f))


def _first_order(
    g0: PolyLike, b: Sequence[PolyLike] = (), a: Sequence[PolyLike] = (), c: Sequence[PolyLike] = ()
) -> Iterator[PolyLike]:
    """The egf coefficients g_0, ..., g_N of the series g with constant term
    g0 that solves a g' = b' g + c', each yielded as soon as it is made.

    a, b and c are egf coefficient sequences of one length N + 1, or empty
    for the zero series; a_0 is taken as 1, and b_0, c_0 never enter.
    Matching the coefficients of t^m/m! gives, for m = 0..N-1,

        g_{m+1} = c_{m+1} + sum_{i=1..m+1} (C(m,i-1) b_i - C(m,i) a_i) g_{m+1-i},

    which never divides, so integer (polynomial) input stays integer.  A
    coefficient reads the last `width` before it, width being the highest
    index of a nonzero a_i or b_i, and only that window is kept: at most 2
    coefficients for a and b of degree at most 2, all of them for a dense a
    or b.  exp is (1, b=f), log1p is (0, a=f, c=f) and the power f^e is
    (1, b=e f, a=f), each gathered whole by :func:`_from_egf`.
    """
    order = max(len(b), len(a), len(c)) - 1
    poly = _has_poly(b, a, c)
    b_terms = [(i, bi) for i, bi in enumerate(b) if i and bi != 0]
    a_terms = [(i, ai) for i, ai in enumerate(a) if i and ai != 0]
    width = max((i for i, _ in a_terms + b_terms), default=0)
    keys: dict = {}
    window: list[PolyLike] = [g0][:width]  # g_{m+1-width} .. g_m, newest last
    yield g0
    for m, row in zip(range(order), _binomial_rows(width)):
        acc: dict = {}
        if c:
            _fma(acc, 1, c[m + 1], 1)
        for i, bi in b_terms:
            if i > m + 1:
                break
            _fma(acc, row[i - 1], bi, window[-i])
        for i, ai in a_terms:
            if i > m:
                break
            _fma(acc, -row[i], ai, window[-i])
        g = _finish(acc, poly, keys)
        window.append(g)
        if len(window) > width:
            del window[0]
        yield g


def _binomial_rows(width: int) -> Iterator[list[int]]:
    """C(m, 0..min(m, width)) for m = 0, 1, 2, ..., each row made from the last
    by additions.

    A row stops at the highest index the recurrence reads, so an equation
    whose a and b have degree at most 2 pays O(1) additions per row, not O(m).
    """
    row = [1]
    while True:
        yield row
        step = [1, *map(add, row, row[1:])]
        if len(row) <= width:
            step.append(1)
        row = step


def _divided_powers(inner: TruncatedSeries) -> Iterator[TruncatedSeries]:
    """P_k = inner^k / k! for k = 0..N, for inner with zero constant term.

    Built by series products only: P_k' = inner' * P_{k-1}, so each P_k is
    one product and one shift (an integration) away from the last, with no
    division.
    """
    # inner' = sum_n inner_{n+1} t^n/n!; its top coefficient lies past the
    # order and only reaches the product coefficient the shift drops.
    slope = _from_egf([*inner._egf[1:], 0])
    power = ser_one(inner.order)
    yield power
    for _ in range(inner.order):
        power = _from_egf([0, *(slope * power)._egf[:-1]])
        yield power


def _from_egf(egf: Iterable[PolyLike]) -> TruncatedSeries:
    # Internal constructor: the coefficients are already egf and exact.
    series = TruncatedSeries.__new__(TruncatedSeries)
    series._egf = tuple(egf)
    return series


# -- stock series, built directly from their egf coefficients -------------


def _stock(order: int, egf: Callable[[int], PolyLike]) -> TruncatedSeries:
    return _from_egf(egf(n) for n in range(_index(order, "series order") + 1))


def identity_t(order: int) -> TruncatedSeries:
    """The series t."""
    return _stock(order, lambda n: int(n == 1))


def ser_one(order: int) -> TruncatedSeries:
    """The constant series 1."""
    return _stock(order, lambda n: int(n == 0))


def geometric_minus_one(order: int) -> TruncatedSeries:
    """1/(1-t) - 1 = t/(1-t) = sum_{n>=1} n! t^n/n!"""
    return _stock(order, lambda n: factorial(n) if n else 0)


def exp_t_minus_one(order: int) -> TruncatedSeries:
    """e^t - 1 = sum_{n>=1} t^n/n!"""
    return _stock(order, lambda n: 1 if n else 0)


def neg_log_one_minus_t(order: int) -> TruncatedSeries:
    """-log(1-t) = sum_{n>=1} (n-1)! t^n/n!"""
    return _stock(order, lambda n: factorial(n - 1) if n else 0)


def degenerate_exponential(order: int) -> TruncatedSeries:
    """The two-parameter exponential sum_n x(x-lam)...(x-(n-1)lam) t^n / n!.

    Built directly from the factorial coefficients so that lam enters
    polynomially; the equivalent closed form (1 + lam*t)^(x/lam) would put
    lam into denominators and is deliberately avoided.  Each coefficient is
    the previous one times (x - (n-1) lam), one product per order; the top
    one has degree order, so an order past MAX_DEGREE is refused before the
    first product.

    The product is kept here on purpose, apart from the stepped-falling helper
    in :mod:`lahbell.exact` that builds the family bases: eq45-catalog and the
    composed half of eq48-corrected hold the families against this series,
    and a shared helper would turn them into comparisons of that helper with
    itself.
    """
    steps = (_X - i * _LAM for i in range(_degree_index(order, "series order", 1)))
    falling = list(accumulate(steps, mul, initial=MultiPoly.const(1)))
    return _stock(order, falling.__getitem__)


# -- the generating-function catalog --------------------------------------


def _solves(a: Sequence[PolyLike], b: Sequence[PolyLike]) -> Callable[[int], Iterator[PolyLike]]:
    """Builder of the egf coefficients of the g with g_0 = 1 that solves
    a g' = b' g, for polynomials a and b in t given by their egf
    coefficients: O(1) work per coefficient, made as they are read."""

    def build(order: int) -> Iterator[PolyLike]:
        pad = [0] * order
        return _first_order(1, b=[*b, *pad][:order + 1], a=[*a, *pad][:order + 1])

    return build


def _lah_row(point: PolyLike, step: PolyLike) -> tuple[int, Callable[[int], Iterator[PolyLike]]]:
    """The row of the Lah-Bell family sum_k L(n,k) (point)_{k,step}: the total
    degree of its order-N coefficient per unit of N, which is that of point,
    and its builder.

    Its egf is (1 + step t/(1-t))^(point/step), and exp(point t/(1-t)) at
    step 0: g'/g = point/((1-t)(1-(1-step)t)), so a = (1-t)(1-(1-step)t) and
    b = point t.  The rows are lah_bell (1, 0), lah_bell_poly (x, 0),
    bivariate_lah_bell (x y, y) and degenerate_lah_bell (x, lam): the points
    and steps at which :mod:`lahbell.families` sums the same triangle, the
    numbers being the polynomials at x = 1.
    """
    degree = MultiPoly._coerce(point).total_degree()
    return degree, _solves((1, step - 2, 2 - 2 * step), (0, point))


# Each row is the total degree of the order-N coefficient per unit of N (0
# for the number rows, 2 for the bivariate ones) and the builder of its egf
# coefficients: a stream for the solved rows, the tuple of a built series for
# the others.
_GF_BUILDERS: dict[str, tuple[int, Callable[[int], Iterable[PolyLike]]]] = {
    "lah_bell": _lah_row(1, 0),
    "lah_bell_poly": _lah_row(_X, 0),
    "bell": (0, lambda order: exp_t_minus_one(order).exp()._egf),
    "bell_poly": (1, lambda order: exp_t_minus_one(order).scale(_X).exp()._egf),
    "bivariate_bell": (2, lambda order: (ser_one(order) + exp_t_minus_one(order).scale(_Y)).pow(_X)._egf),
    "bivariate_lah_bell": _lah_row(_X * _Y, _Y),
    "degenerate_lah_bell": _lah_row(_X, _LAM),
    "degenerate_bell": (1, lambda order: degenerate_exponential(order).compose(exp_t_minus_one(order))._egf),
    # (1-t)^(-alpha-1) exp(x t/(t-1)): g'/g = ((alpha+1)(1-t) - x)/(1-t)^2, so
    # a = (1-t)^2 and b = (alpha+1-x) t - (alpha+1) t^2/2.
    "laguerre_weighted": (1, _solves((1, -2, 2), (0, _ALPHA + 1 - _X, -_ALPHA - 1))),
}

GF_NAMES = tuple(_GF_BUILDERS)


def _gf_terms(name: str, order: int) -> Iterable[PolyLike]:
    """The egf coefficients 0..order of the named generating function.

    The name and the order are checked here, at the call: an order whose
    coefficient would pass MAX_DEGREE is refused before the first
    coefficient.  A solved row's coefficients then come one at a time, its
    solver keeping only the window its recurrence reads; the other rows are
    built whole first.
    """
    per, build = _named(_GF_BUILDERS, name, "generating function")
    return build(_degree_index(order, "order", per))


# One entry per name: a `verify all` run asks each name at a single order.
@lru_cache(maxsize=len(GF_NAMES), typed=True)
def gf_catalog(name: str, order: int) -> TruncatedSeries:
    """Named exponential generating functions of the number/polynomial families.

    Each entry is one row of ``_GF_BUILDERS``: the e^t rows are exp and pow of
    e^t - 1, degenerate_bell composes the stepped exponential with e^t - 1,
    and the Lah-Bell and Laguerre rows, whose exponent is rational in t, solve
    their first-order equation a g' = b' g directly.  Their egf coefficients
    reproduce the matching closed-form family exactly, which the identity
    suite checks.  All family parameters stay symbolic.  An order whose
    coefficient would pass MAX_DEGREE is refused before the first coefficient.
    """
    return _from_egf(_gf_terms(name, order))
