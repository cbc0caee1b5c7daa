"""Closed-form construction of the polynomial families as exact MultiPoly values.

Each family is a finite sum of triangle entries against a factorial or power
basis, and every basis 0..n is one run of stepped falling products
(p)_{k,s} = p(p-s)...(p-(k-1)s), made as one running product.
Indeterminates used: bell / lah_bell need x only; the bivariate families add
y; the degenerate families add lam; laguerre uses x and alpha.

Every family here has an independent generating-function route in
:mod:`lahbell.series`; the identity suite holds the two routes equal.
"""

from __future__ import annotations

from math import comb, factorial
from operator import mul
from typing import Callable, Iterable, Sequence

from .exact import MultiPoly, PolyLike, _falling_prefixes, _finish, _fma
from .exact import generalized_falling  # unused; bench/tracer.py REQUIRED_SITES pins it
from .triangles import lah, stirling2

__all__ = [
    "bell_poly",
    "lah_bell_poly",
    "bivariate_bell_poly",
    "bivariate_lah_bell_poly",
    "degenerate_bell_poly",
    "degenerate_lah_bell_poly",
    "laguerre_poly",
    "lah_bell_recurrence_step",
    "lah_bell_derivative",
    "poly_family",
    "triangle_sum",
    "FAMILIES",
]

_X = MultiPoly.var("x")
_Y = MultiPoly.var("y")
_LAM = MultiPoly.var("lam")
_ALPHA = MultiPoly.var("alpha")


def _require_index(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"family index must be a nonnegative integer, got {n!r}")


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


def bell_poly(n: int) -> MultiPoly:
    """sum_k S2(n,k) x^k; at x=1 this is the n-th set-partition count."""
    _require_index(n)
    return triangle_sum(n, stirling2, _falling_prefixes(_X, n, 0))


def lah_bell_poly(n: int) -> MultiPoly:
    """sum_k L(n,k) x^k; at x=1 this is the n-th ordered-list-partition count."""
    _require_index(n)
    return triangle_sum(n, lah, _falling_prefixes(_X, n, 0))


def bivariate_bell_poly(n: int) -> MultiPoly:
    """sum_k S2(n,k) (x)_k y^k, with (x)_k the falling factorial."""
    _require_index(n)
    return triangle_sum(n, stirling2, _falling_prefixes(_X * _Y, n, _Y))


def bivariate_lah_bell_poly(n: int) -> MultiPoly:
    """sum_k L(n,k) (x)_k y^k."""
    _require_index(n)
    return triangle_sum(n, lah, _falling_prefixes(_X * _Y, n, _Y))


def degenerate_bell_poly(n: int) -> MultiPoly:
    """sum_k S2(n,k) x(x-lam)...(x-(k-1)lam); lam=0 recovers bell_poly."""
    _require_index(n)
    return triangle_sum(n, stirling2, _falling_prefixes(_X, n, _LAM))


def degenerate_lah_bell_poly(n: int) -> MultiPoly:
    """sum_k L(n,k) x(x-lam)...(x-(k-1)lam); lam=0 recovers lah_bell_poly."""
    _require_index(n)
    return triangle_sum(n, lah, _falling_prefixes(_X, n, _LAM))


def laguerre_poly(n: int) -> MultiPoly:
    """Laguerre polynomial of order alpha in the factorial-weighted normalization.

    This is n! times the classical polynomial: the value whose exponential
    generating function is (1-t)^(-alpha-1) * exp(x*t/(t-1)).  Closed form:
    sum_k (-1)^k C(n,k) (alpha+k+1)(alpha+k+2)...(alpha+n) x^k, summed here
    over j = n-k, whose weight (alpha+n)(alpha+n-1)...(alpha+n-j+1) grows with j.
    """
    _require_index(n)
    weights = _falling_prefixes(_ALPHA + n, n, 1)
    powers = list(_falling_prefixes(_X, n, 0))
    return triangle_sum(n, comb, map(mul, weights, reversed(powers)), -1)


def lah_bell_recurrence_step(n: int, values: Sequence[MultiPoly]) -> MultiPoly:
    """Next lah_bell polynomial from all earlier ones p_0..p_n:

    p_{n+1} = x * sum_{m=0..n} C(n,m) (n-m+1)! p_m.
    """
    _require_index(n)
    if len(values) != n + 1:
        raise ValueError(f"need values for indices 0..{n}, got {len(values)} entries")
    return _X * triangle_sum(n, lambda _, m: comb(n, m) * factorial(n - m + 1), values)


def lah_bell_derivative(n: int, values: Sequence[MultiPoly]) -> MultiPoly:
    """d/dx of the n-th lah_bell polynomial from the earlier ones p_0..p_{n-1}:

    sum_{m=0..n-1} C(n,m) (n-m)! p_m.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"derivative expansion needs n >= 1, got {n!r}")
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
    try:
        builder = _FAMILY_BUILDERS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}") from None
    return builder(n)
