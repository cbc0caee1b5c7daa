"""Truncated formal power series over an exact coefficient ring.

A :class:`TruncatedSeries` of order N stores the exponential-generating-function
coefficients e_n = n! * a_n of t^0 .. t^N, where a_n is the ordinary
coefficient; coefficients are integers, rationals or
:class:`~lahbell.exact.MultiPoly` values.  All series here are formal, so
convergence never enters; the only analytic-looking operations (exp, log) are
coefficient recurrences.

Every catalog series has integer (or integer-polynomial) egf coefficients.  In
that form the product is the binomial convolution sum_i C(n,i) a_i b_{n-i},
exp, log1p, composition and the symbolic power are built from such
convolutions, and none of them divides, so integer input stays integer and no
coefficient pays a gcd.  Every convolution sum accumulates in place through
the multiply-accumulate kernel of :mod:`lahbell.exact`.  The
constructor and :meth:`TruncatedSeries.coefficient` speak ordinary
coefficients; the conversion happens at that boundary.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial
from operator import mul
from typing import Callable, Iterable, Sequence, Union

from .exact import MultiPoly, _as_coeff, _finish, _fma

__all__ = [
    "TruncatedSeries",
    "identity_t",
    "ser_one",
    "geometric_minus_one",
    "exp_t_minus_one",
    "neg_log_one_minus_t",
    "degenerate_exponential",
    "gf_catalog",
    "GF_NAMES",
]

Coeff = Union[int, Fraction, MultiPoly]


def _as_ring(value: Coeff) -> Coeff:
    return value if isinstance(value, MultiPoly) else _as_coeff(value)


def _has_poly(*coeffs: Iterable[Coeff]) -> bool:
    """Whether a MultiPoly enters: the ring an accumulation finishes in."""
    return any(type(c) is MultiPoly for seq in coeffs for c in seq)


class TruncatedSeries:
    """Degree-capped power series with exact coefficients, stored in egf form.

    Binary operations require both operands to have the same order; a
    mismatch is a construction bug, not something to hide behind silent
    truncation, so it raises.
    """

    __slots__ = ("_egf",)

    def __init__(self, coeffs: Sequence[Coeff], order: int | None = None):
        """A series from its ordinary coefficients a_0, a_1, ..., zero-padded to `order`."""
        coeffs = [_as_ring(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValueError("series needs at least the constant coefficient")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("series order must be nonnegative")
        if len(coeffs) > order + 1:
            raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
        coeffs.extend([0] * (order + 1 - len(coeffs)))
        self._egf = tuple(_as_ring(factorial(n) * c) for n, c in enumerate(coeffs))

    # -- access --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._egf) - 1

    def egf_coefficient(self, n: int) -> Coeff:
        """n! times the ordinary coefficient of t^n, as stored."""
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside tracked range 0..{self.order}")
        return self._egf[n]

    def coefficient(self, n: int) -> Coeff:
        """Ordinary coefficient of t^n."""
        return self.egf_coefficient(n) * Fraction(1, factorial(n))

    def coefficients(self) -> tuple[Coeff, ...]:
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

    def scale(self, c: Coeff) -> TruncatedSeries:
        """Multiply every coefficient by a fixed ring element."""
        c = _as_ring(c)
        return _from_egf(_as_ring(c * coeff) for coeff in self._egf)

    def __pow__(self, k: int) -> TruncatedSeries:
        if not isinstance(k, int) or k < 0:
            raise ValueError("series power must be a nonnegative integer")
        result = ser_one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(a == b for a, b in zip(self._egf, other._egf))

    __hash__ = None

    # -- transcendental operations (coefficient recurrences) -------------

    def exp(self) -> TruncatedSeries:
        """exp(f) for f with zero constant term.

        Solved coefficient-by-coefficient from (exp f)' = f' * exp f:
        g_n = sum_{j=1..n} C(n-1,j-1) f_j g_{n-j}, g_0 = 1.
        """
        f = self._egf
        if f[0] != 0:
            raise ValueError("exp requires a zero constant term")
        poly = _has_poly(f)
        support = [j for j in range(1, len(f)) if f[j] != 0]
        g: list[Coeff] = [1]
        for n in range(1, len(f)):
            acc: dict = {}
            for j in support:
                if j > n:
                    break
                _fma(acc, comb(n - 1, j - 1), f[j], g[n - j])
            g.append(_finish(acc, poly))
        return _from_egf(g)

    def log1p(self) -> TruncatedSeries:
        """log(1 + f) for f with zero constant term; the inverse of :meth:`exp`.

        From h' * (1 + f) = f':
        h_n = f_n - sum_{j=1..n-1} C(n-1,j) f_j h_{n-j}, h_0 = 0.
        """
        f = self._egf
        if f[0] != 0:
            raise ValueError("log1p requires a zero constant term")
        poly = _has_poly(f)
        support = [j for j in range(1, len(f)) if f[j] != 0]
        h: list[Coeff] = [0]
        for n in range(1, len(f)):
            acc: dict = {}
            _fma(acc, 1, f[n], 1)
            for j in support:
                if j >= n:
                    break
                _fma(acc, -comb(n - 1, j), f[j], h[n - j])
            h.append(_finish(acc, poly))
        return _from_egf(h)

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """Exact composition self(inner(t)) for inner with zero constant term.

        With P_k = inner^k / k!, self(inner) = sum_k f_k P_k over the egf
        coefficients f_k of self.  The power table is built by series
        products only: P_k' = inner' * P_{k-1}, so each P_k is one product
        and one shift (an integration) away from the last, with no division.
        """
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("inner must be a TruncatedSeries")
        self._require_same_order(inner)
        if inner._egf[0] != 0:
            raise ValueError("composition requires inner constant term zero")
        f = self._egf
        poly = _has_poly(f, inner._egf)
        # inner' = sum_n inner_{n+1} t^n/n!; its top coefficient lies past the
        # order and only reaches the product coefficient the shift drops.
        slope = _from_egf([*inner._egf[1:], 0])
        power = ser_one(self.order)
        acc: list[dict] = [{} for _ in f]
        for k in range(1, len(f)):
            power = _from_egf([0, *(slope * power)._egf[:-1]])
            if f[k] == 0:
                continue
            for n in range(k, len(f)):
                p = power._egf[n]
                if p != 0:
                    _fma(acc[n], 1, f[k], p)
        return _from_egf([f[0], *(_finish(terms, poly) for terms in acc[1:])])

    def pow(self, exponent: Coeff) -> TruncatedSeries:
        """Symbolic power g = f^e for f with constant term 1, by J.C.P. Miller's recurrence.

        g = f^e solves f g' = e f' g with g_0 = 1.  In egf form, with f_0 = 1,
        g_{m+1} = sum_{i=1..m+1} (C(m,i-1) e f_i - C(m,i) f_i) g_{m+1-i}:
        no log, exp or division, so integer (polynomial) input stays integer.
        The products e f_i are formed once; each step is then two
        multiply-accumulates per nonzero f_i.
        """
        f = self._egf
        if f[0] != 1:
            raise ValueError("symbolic power requires constant term 1")
        e = _as_ring(exponent)
        poly = _has_poly(f, (e,))
        support = [i for i in range(1, len(f)) if f[i] != 0]
        ef = [e * c for c in f]
        g: list[Coeff] = [1]
        for m in range(self.order):
            acc: dict = {}
            for i in support:
                if i > m + 1:
                    break
                _fma(acc, comb(m, i - 1), ef[i], g[m + 1 - i])
                if i <= m:
                    _fma(acc, -comb(m, i), f[i], g[m + 1 - i])
            g.append(_finish(acc, poly))
        return _from_egf(g)


def _from_egf(egf: Iterable[Coeff]) -> TruncatedSeries:
    # Internal constructor: the coefficients are already egf and exact.
    series = TruncatedSeries.__new__(TruncatedSeries)
    series._egf = tuple(egf)
    return series


# -- stock series, built directly from their egf coefficients -------------


def _stock(order: int, egf: Callable[[int], Coeff]) -> TruncatedSeries:
    if order < 0:
        raise ValueError("series order must be nonnegative")
    return _from_egf(egf(n) for n in range(order + 1))


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
    the previous one times (x - (n-1) lam), one product per order.

    The product is kept here on purpose, apart from the stepped-falling helper
    in :mod:`lahbell.exact` that builds the family bases: eq44 and
    eq45-catalog hold the families against this series, and a shared helper
    would turn them into comparisons of that helper with itself.
    """
    x = MultiPoly.var("x")
    lam = MultiPoly.var("lam")
    steps = (x - i * lam for i in range(order))
    falling = list(accumulate(steps, mul, initial=MultiPoly.const(1)))
    return _stock(order, falling.__getitem__)


# -- the generating-function catalog --------------------------------------

GF_NAMES = (
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


# One entry per name: a `verify all` run asks each name at a single order.
@lru_cache(maxsize=len(GF_NAMES))
def gf_catalog(name: str, order: int) -> TruncatedSeries:
    """Named exponential generating functions of the number/polynomial families.

    Every entry is assembled from the primitive series operations above; its
    egf coefficients reproduce the matching closed-form family exactly, which
    the identity suite checks.  All family parameters stay symbolic.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    x = MultiPoly.var("x")
    y = MultiPoly.var("y")
    alpha = MultiPoly.var("alpha")

    if name == "lah_bell":
        return geometric_minus_one(order).exp()
    if name == "lah_bell_poly":
        return geometric_minus_one(order).scale(x).exp()
    if name == "bell":
        return exp_t_minus_one(order).exp()
    if name == "bell_poly":
        return exp_t_minus_one(order).scale(x).exp()
    if name == "bivariate_bell":
        return (ser_one(order) + exp_t_minus_one(order).scale(y)).pow(x)
    if name == "bivariate_lah_bell":
        return (ser_one(order) + geometric_minus_one(order).scale(y)).pow(x)
    if name == "degenerate_lah_bell":
        return degenerate_exponential(order).compose(geometric_minus_one(order))
    if name == "degenerate_bell":
        return degenerate_exponential(order).compose(exp_t_minus_one(order))
    if name == "laguerre_weighted":
        # (1-t)^(-alpha-1) * exp(x * t/(t-1)); t/(t-1) = -(1/(1-t) - 1).
        weight = (ser_one(order) - identity_t(order)).pow(-alpha - 1)
        return weight * geometric_minus_one(order).scale(-x).exp()
    raise ValueError(f"unknown generating function {name!r}, expected one of {GF_NAMES}")
