"""Closed-form construction of the polynomial families as exact MultiPoly values.

Each family is a finite sum of triangle entries against a factorial or power
basis, and every basis 0..n is one run of stepped falling products
(p)_{k,s} = p(p-s)...(p-(k-1)s), made as one running product.
Indeterminates used: bell / lah_bell need x only; the bivariate families add
y; the degenerate families add lam; laguerre uses x and alpha.

Every family here has an independent generating-function route in
:mod:`lahbell.series`; the identity suite holds the two routes equal.  The
Laguerre sum takes its binomials from math.comb, never from the series
solver's rows, so the two routes of eq49 share no binomial code.
"""

from __future__ import annotations

from math import comb, factorial
from operator import mul
from typing import Callable, Iterable, Sequence

from . import _EXPORTS
from .exact import _ALPHA, _LAM, _X, _Y, MultiPoly, PolyLike, _degree_index, _falling_prefixes
from .exact import _finish, _fma, _index, _named
from .exact import generalized_falling  # unused; bench/tracer.py REQUIRED_SITES pins it
from .triangles import lah, stirling2

__all__ = _EXPORTS["families"]


def triangle_sum(
    n: int,
    entry: Callable[[int, int], int],
    bases: Iterable[PolyLike],
    sign: int = 1,
) -> MultiPoly:
    """sum_{k=0..n} sign^(n-k) entry(n,k) basis_k over exactly n+1 bases
    basis_0..basis_n; a sign of 1 adds the terms, -1 alternates them."""
    acc: dict = {}
    for k, basis in zip(range(n + 1), bases, strict=True):
        _fma(acc, (sign if (n - k) % 2 else 1) * entry(n, k), basis, 1)
    return _finish(acc)


def _falling_sum(
    n: int, triangle: Callable[[int, int], int], point: MultiPoly, step: PolyLike
) -> MultiPoly:
    """sum_k triangle(n,k) (point)_{k,step}, the shape of every triangle-sum family.

    Each factor point - j*step has at most the degree of point, so the
    precheck refuses an n whose sum would pass MAX_DEGREE before any work.
    """
    _degree_index(n, "family index", point.total_degree())
    return triangle_sum(n, triangle, _falling_prefixes(point, n, step))


def bell_poly(n: int) -> MultiPoly:
    """sum_k S2(n,k) x^k; at x=1 this is the n-th set-partition count."""
    return _falling_sum(n, stirling2, _X, 0)


def lah_bell_poly(n: int) -> MultiPoly:
    """sum_k L(n,k) x^k; at x=1 this is the n-th ordered-list-partition count."""
    return _falling_sum(n, lah, _X, 0)


def bivariate_bell_poly(n: int) -> MultiPoly:
    """sum_k S2(n,k) (x)_k y^k, with (x)_k the falling factorial."""
    return _falling_sum(n, stirling2, _X * _Y, _Y)


def bivariate_lah_bell_poly(n: int) -> MultiPoly:
    """sum_k L(n,k) (x)_k y^k."""
    return _falling_sum(n, lah, _X * _Y, _Y)


def degenerate_bell_poly(n: int) -> MultiPoly:
    """sum_k S2(n,k) x(x-lam)...(x-(k-1)lam); lam=0 recovers bell_poly."""
    return _falling_sum(n, stirling2, _X, _LAM)


def degenerate_lah_bell_poly(n: int) -> MultiPoly:
    """sum_k L(n,k) x(x-lam)...(x-(k-1)lam); lam=0 recovers lah_bell_poly."""
    return _falling_sum(n, lah, _X, _LAM)


def laguerre_poly(n: int) -> MultiPoly:
    """Laguerre polynomial of order alpha in the factorial-weighted normalization.

    This is n! times the classical polynomial: the value whose exponential
    generating function is (1-t)^(-alpha-1) * exp(x*t/(t-1)).  Closed form:
    sum_k (-1)^k C(n,k) (alpha+k+1)(alpha+k+2)...(alpha+n) x^k, summed here
    over j = n-k, whose weight (alpha+n)(alpha+n-1)...(alpha+n-j+1) grows with j.
    """
    _degree_index(n, "family index", 1)
    weights = _falling_prefixes(_ALPHA + n, n, 1)
    powers = list(_falling_prefixes(_X, n, 0))
    return triangle_sum(n, comb, map(mul, weights, reversed(powers)), -1)


def lah_bell_recurrence_step(n: int, values: Sequence[MultiPoly]) -> MultiPoly:
    """Next lah_bell polynomial from all earlier ones p_0..p_n:

    p_{n+1} = x * sum_{m=0..n} C(n,m) (n-m+1)! p_m.
    """
    _index(n, "family index")
    if len(values) != n + 1:
        raise ValueError(f"need values for indices 0..{n}, got {len(values)} entries")
    return _X * triangle_sum(n, lambda _, m: comb(n, m) * factorial(n - m + 1), values)


def lah_bell_derivative(n: int, values: Sequence[MultiPoly]) -> MultiPoly:
    """d/dx of the n-th lah_bell polynomial from the earlier ones p_0..p_{n-1}:

    sum_{m=0..n-1} C(n,m) (n-m)! p_m.
    """
    if _index(n, "family index") < 1:
        raise ValueError(f"derivative expansion needs n >= 1, got {n}")
    if len(values) != n:
        raise ValueError(f"need values for indices 0..{n - 1}, got {len(values)} entries")
    return triangle_sum(n - 1, lambda _, m: comb(n, m) * factorial(n - m), values)


_FAMILY_BUILDERS: dict[str, Callable[[int], MultiPoly]] = {
    "bell": bell_poly,
    "lah_bell": lah_bell_poly,
    "bivariate_bell": bivariate_bell_poly,
    "bivariate_lah_bell": bivariate_lah_bell_poly,
    "degenerate_bell": degenerate_bell_poly,
    "degenerate_lah_bell": degenerate_lah_bell_poly,
    "laguerre": laguerre_poly,
}

FAMILIES = tuple(_FAMILY_BUILDERS)


def poly_family(family: str, n: int) -> MultiPoly:
    """Dispatch by family name; raises on unknown names."""
    return _named(_FAMILY_BUILDERS, family, "family")(n)
