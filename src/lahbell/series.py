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
composition.  These are D-finite functions (Stanley, Eur. J. Combin. 1980;
Salvy and Zimmermann, GFUN, ACM TOMS 1994).  Every convolution sum
accumulates in place through the multiply-accumulate kernel of
:mod:`lahbell.exact`.  The constructor and :meth:`TruncatedSeries.coefficient`
speak ordinary coefficients; the conversion happens at that boundary.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
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
        out = []
        for n in range(len(a)):
            acc: dict = {}
            for i in support:
                if i > n:
                    break
                if b_nonzero[n - i]:
                    _fma(acc, comb(n, i), a[i], b[n - i])
            out.append(_finish(acc, poly))
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
        return _from_egf(_first_order(1, self.order, b=f))

    def log1p(self) -> TruncatedSeries:
        """log(1 + f) for f with zero constant term; the inverse of :meth:`exp`.

        h = log(1 + f) solves (1 + f) h' = f' with h_0 = 0.
        """
        f = self._egf
        if f[0] != 0:
            raise ValueError("log1p requires a zero constant term")
        return _from_egf(_first_order(0, self.order, a=f, c=f))

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """Exact composition self(inner(t)) for inner with zero constant term.

        With P_k = inner^k / k!, self(inner) = sum_k f_k P_k over the egf
        coefficients f_k of self, the P_k coming from :func:`_divided_powers`.
        P_k has no term below t^k, so coefficient k is final once P_k is
        added: it is finished then, and its partial sum is dropped rather than
        held beside the finished coefficients until the last power.
        """
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("inner must be a TruncatedSeries")
        self._require_same_order(inner)
        if inner._egf[0] != 0:
            raise ValueError("composition requires inner constant term zero")
        f = self._egf
        poly = _has_poly(f, inner._egf)
        acc: list = [f[0], *({} for _ in f[1:])]
        for k, power in enumerate(islice(_divided_powers(inner), 1, None), 1):
            if f[k] != 0:
                for n in range(k, len(f)):
                    p = power._egf[n]
                    if p != 0:
                        _fma(acc[n], 1, f[k], p)
            acc[k] = _finish(acc[k], poly)
        return _from_egf(acc)

    def pow(self, exponent: PolyLike) -> TruncatedSeries:
        """Symbolic power g = f^e for f with constant term 1, by J.C.P. Miller's recurrence.

        g = f^e solves f g' = e f' g with g_0 = 1: no log, exp or division,
        so integer (polynomial) input stays integer.  No catalog row calls
        it; it is public API, and the tests' reference route that holds the
        composed bivariate_bell row to eq37's closed form (1 + y(e^t - 1))^x.
        """
        f = self._egf
        if f[0] != 1:
            raise ValueError("symbolic power requires constant term 1")
        e = _as_ring(exponent)
        return _from_egf(_first_order(1, self.order, b=[e * c for c in f], a=f))


def _first_order(
    g0: PolyLike, order: int, b: Sequence[PolyLike] = (), a: Sequence[PolyLike] = (), c: Sequence[PolyLike] = ()
) -> Iterator[PolyLike]:
    """The egf coefficients g_0, ..., g_order of the series g with constant
    term g0 that solves a g' = b' g + c', each yielded as soon as it is made.

    a, b and c are egf coefficient sequences of any length, a coefficient
    past the end of one being zero, so a polynomial in t is given by its
    own coefficients; a_0 is taken as 1, and b_0, c_0 never enter.
    Matching the coefficients of t^m/m! gives, for m = 0..order-1,

        g_{m+1} = c_{m+1} + sum_{i=1..m+1} (C(m,i-1) b_i - C(m,i) a_i) g_{m+1-i},

    which never divides, so integer (polynomial) input stays integer.  A
    coefficient reads the last `width` before it, width being the highest
    index of a nonzero a_i or b_i, and only that window is kept: at most 2
    coefficients for a and b of degree at most 2, all of them for a dense a
    or b.  exp is (1, b=f), log1p is (0, a=f, c=f) and the power f^e is
    (1, b=e f, a=f), each gathered whole by :func:`_from_egf`; the seven
    solved rows of the catalog are streamed from it as they are made.
    """
    poly = _has_poly(b, a, c)
    b_terms = [(i, bi) for i, bi in enumerate(b) if i and bi != 0]
    a_terms = [(i, ai) for i, ai in enumerate(a) if i and ai != 0]
    width = max((i for i, _ in a_terms + b_terms), default=0)
    window: list[PolyLike] = [g0][:width]  # g_{m+1-width} .. g_m, newest last
    yield g0
    for m, row in zip(range(order), _binomial_rows(width)):
        acc: dict = {}
        if m + 1 < len(c):
            _fma(acc, 1, c[m + 1], 1)
        for i, bi in b_terms:
            if i > m + 1:
                break
            _fma(acc, row[i - 1], bi, window[-i])
        for i, ai in a_terms:
            if i > m:
                break
            _fma(acc, -row[i], ai, window[-i])
        g = _finish(acc, poly)
        window.append(g)
        if len(window) > width:
            del window[0]
        yield g


def _binomial_rows(width: int) -> Iterator[list[int]]:
    """C(m, 0..min(m, width)) for m = 0, 1, 2, ..., each row made from the last
    by additions.

    A row stops at the highest index the recurrence reads, so an equation
    whose a and b have degree at most 2 pays O(1) additions per row, not O(m).
    The series product keeps one math.comb per nonzero term pair: at the
    orders a composition runs, comb works on machine words, and a row per
    output index cost more than those calls.  The rows also keep the
    solver's binomials apart from math.comb, which families.laguerre_poly
    uses on the other side of eq49, so the two routes share no binomial code.
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
    division.  The table never reads the triangles, so eq4 and eq9 check it
    against S2 and S1, and the composition identities (eq45-catalog and the
    composed half of eq48-corrected) stay independent of them.  For an
    integer inner series it holds integers, so composing scales each outer
    polynomial coefficient by integers only.
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
    """The two-parameter exponential sum_n x(x-lam)...(x-(n-1)lam) t^n / n!,
    the stepped exponential at (x, lam)."""
    return _stepped_exponential(order, _X, _LAM)


def _stepped_exponential(order: int, point: PolyLike, step: PolyLike) -> TruncatedSeries:
    """The stepped exponential sum_n (point)_{n,step} t^n / n!, with
    (point)_{n,step} = point (point - step) ... (point - (n-1) step).

    Built directly from the stepped falling coefficients so that step enters
    polynomially; the equivalent closed form (1 + step t)^(point/step) would
    put step into denominators and is deliberately avoided.  Each coefficient
    is the previous one times (point - (n-1) step), one product per order;
    each factor has at most the total degree of point, so an order whose top
    coefficient would pass MAX_DEGREE is refused before the first product.

    The product is kept here on purpose, apart from the stepped-falling helper
    in :mod:`lahbell.exact` that builds the family bases: the Bell rows of the
    catalog, eq45-catalog and the composed half of eq48-corrected hold the
    families against this series, and a shared helper would turn them into
    comparisons of that helper with itself.
    """
    degree = MultiPoly._coerce(point).total_degree()
    steps = (point - i * step for i in range(_degree_index(order, "series order", degree)))
    falling = list(accumulate(steps, mul, initial=MultiPoly.const(1)))
    return _stock(order, falling.__getitem__)


# -- the generating-function catalog --------------------------------------


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
    a, b = (1, step - 2, 2 - 2 * step), (0, point)
    return degree, lambda order: _first_order(1, order, b=b, a=a)


def _bell_row(point: PolyLike, step: PolyLike) -> tuple[int, Callable[[int], Iterable[PolyLike]]]:
    """The row of the Bell family sum_k S2(n,k) (point)_{k,step}, as
    :func:`_lah_row` gives that of the Lah-Bell family: its degree per unit
    of N and its builder.

    Its egf is the stepped exponential at (point, step) composed with
    e^t - 1, (1 + step (e^t - 1))^(point/step).  At step 0 that is
    exp(point (e^t - 1)), which solves g' = point e^t g: a first-order solve
    with b = point (e^t - 1), whose egf coefficients are all point, streamed
    as :func:`_first_order` makes it.  Otherwise the a and b of the power
    would both be dense in t, so the row is the composition, built whole:
    composing with the integer divided powers of e^t - 1 scales each
    polynomial coefficient only by integers, but every power reaches every
    coefficient above its own index, so the partial sums of the whole series
    are held from the first power on.  The rows are bell (1, 0), bell_poly
    (x, 0), bivariate_bell (x y, y) and degenerate_bell (x, lam): the points
    and steps at which :mod:`lahbell.families` sums the Stirling triangle.
    """
    degree = MultiPoly._coerce(point).total_degree()
    if step == 0:
        return degree, lambda order: _first_order(1, order, b=[0, *[point] * order])
    return degree, lambda order: _stepped_exponential(order, point, step).compose(exp_t_minus_one(order))._egf


# (1-t)^(-alpha-1) exp(x t/(t-1)): g'/g = ((alpha+1)(1-t) - x)/(1-t)^2, so
# laguerre_weighted has a = (1-t)^2 and b = (alpha+1-x) t - (alpha+1) t^2/2.
_LAGUERRE_B = (0, _ALPHA + 1 - _X, -_ALPHA - 1)

# Each row is the total degree of the order-N coefficient per unit of N (0
# for the number rows, 2 for the bivariate ones) and the builder of its egf
# coefficients; _gf_terms says which rows stream.
_GF_BUILDERS: dict[str, tuple[int, Callable[[int], Iterable[PolyLike]]]] = {
    "lah_bell": _lah_row(1, 0),
    "lah_bell_poly": _lah_row(_X, 0),
    "bell": _bell_row(1, 0),
    "bell_poly": _bell_row(_X, 0),
    "bivariate_bell": _bell_row(_X * _Y, _Y),
    "bivariate_lah_bell": _lah_row(_X * _Y, _Y),
    "degenerate_lah_bell": _lah_row(_X, _LAM),
    "degenerate_bell": _bell_row(_X, _LAM),
    "laguerre_weighted": (1, lambda order: _first_order(1, order, b=_LAGUERRE_B, a=(1, -2, 2))),
}

GF_NAMES = tuple(_GF_BUILDERS)


def _gf_terms(name: str, order: int) -> Iterable[PolyLike]:
    """The egf coefficients 0..order of the named generating function.

    The name and the order are checked here, at the call: an order whose
    coefficient would pass MAX_DEGREE is refused before the first
    coefficient.  The seven solved rows (the four Lah-Bell rows, Laguerre,
    bell and bell_poly) then come one coefficient at a time, each solver
    keeping only the window its recurrence reads.  bivariate_bell and
    degenerate_bell are built whole first: a composition holds the partial
    sums of every coefficient from its first divided power on, so a stream
    of it would hold no less (see :func:`_bell_row`).
    """
    per, build = _named(_GF_BUILDERS, name, "generating function")
    return build(_degree_index(order, "order", per))


# One entry per name: a `verify all` run asks each name at a single order.
@lru_cache(maxsize=len(GF_NAMES), typed=True)
def gf_catalog(name: str, order: int) -> TruncatedSeries:
    """Named exponential generating functions of the number/polynomial families.

    Each entry is one row of ``_GF_BUILDERS``, gathered whole from
    :func:`_gf_terms`, which says which rows are solved and which composed.
    Their egf coefficients reproduce the matching closed-form family
    exactly, which the identity suite checks.  All family parameters stay
    symbolic.  An order whose coefficient would pass MAX_DEGREE is refused
    before the first coefficient.
    """
    return _from_egf(_gf_terms(name, order))
