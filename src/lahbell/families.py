"""Closed-form construction of the polynomial families as exact MultiPoly values.

Each family is a finite sum of triangle entries against a factorial or power
basis.  Indeterminates used: bell / lah_bell need x only; the bivariate
families add y; the degenerate families add lam; laguerre uses x and alpha.

Every family here has an independent generating-function route in
:mod:`lahbell.series`; the identity suite holds the two routes equal.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Callable, Sequence

from .exact import (
    MultiPoly,
    PolyLike,
    _finish,
    _fma,
    falling_factorial,
    generalized_falling,
    rising_factorial,
)
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
    basis: Callable[[int], PolyLike],
    sign: int = 1,
) -> MultiPoly:
    """sum_{k=0..n} sign^(n-k) entry(n,k) basis(k); a sign of -1 alternates the terms."""
    acc: dict = {}
    for k in range(n + 1):
        _fma(acc, sign ** (n - k) * entry(n, k), basis(k), 1)
    return _finish(acc)


def bell_poly(n: int) -> MultiPoly:
    """sum_k S2(n,k) x^k; at x=1 this is the n-th set-partition count."""
    _require_index(n)
    return triangle_sum(n, stirling2, lambda k: _X**k)


def lah_bell_poly(n: int) -> MultiPoly:
    """sum_k L(n,k) x^k; at x=1 this is the n-th ordered-list-partition count."""
    _require_index(n)
    return triangle_sum(n, lah, lambda k: _X**k)


def bivariate_bell_poly(n: int) -> MultiPoly:
    """sum_k S2(n,k) (x)_k y^k, with (x)_k the falling factorial."""
    _require_index(n)
    return triangle_sum(n, stirling2, lambda k: falling_factorial(_X, k) * _Y**k)


def bivariate_lah_bell_poly(n: int) -> MultiPoly:
    """sum_k L(n,k) (x)_k y^k."""
    _require_index(n)
    return triangle_sum(n, lah, lambda k: falling_factorial(_X, k) * _Y**k)


def degenerate_bell_poly(n: int) -> MultiPoly:
    """sum_k S2(n,k) x(x-lam)...(x-(k-1)lam); lam=0 recovers bell_poly."""
    _require_index(n)
    return triangle_sum(n, stirling2, lambda k: generalized_falling(_X, k, _LAM))


def degenerate_lah_bell_poly(n: int) -> MultiPoly:
    """sum_k L(n,k) x(x-lam)...(x-(k-1)lam); lam=0 recovers lah_bell_poly."""
    _require_index(n)
    return triangle_sum(n, lah, lambda k: generalized_falling(_X, k, _LAM))


def laguerre_poly(n: int) -> MultiPoly:
    """Laguerre polynomial of order alpha in the factorial-weighted normalization.

    This is n! times the classical polynomial: the value whose exponential
    generating function is (1-t)^(-alpha-1) * exp(x*t/(t-1)).  Closed form:
    sum_k (-1)^k C(n,k) (alpha+k+1)(alpha+k+2)...(alpha+n) x^k.
    """
    _require_index(n)
    acc: dict = {}
    for k in range(n + 1):
        _fma(acc, (-1) ** k * comb(n, k), rising_factorial(_ALPHA + k + 1, n - k), _X**k)
    return _finish(acc)


def lah_bell_recurrence_step(n: int, values: Sequence[MultiPoly]) -> MultiPoly:
    """Next lah_bell polynomial from all earlier ones:

    p_{n+1} = x * sum_{m=0..n} C(n,m) (n-m+1)! p_m.
    """
    _require_index(n)
    if len(values) != n + 1:
        raise ValueError(f"need values for indices 0..{n}, got {len(values)} entries")
    acc: dict = {}
    for m in range(n + 1):
        _fma(acc, comb(n, m) * factorial(n - m + 1), _X, values[m])
    return _finish(acc)


def lah_bell_derivative(n: int) -> MultiPoly:
    """d/dx of the n-th lah_bell polynomial via the lower-order expansion:

    sum_{m=0..n-1} C(n,m) (n-m)! p_m.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"derivative expansion needs n >= 1, got {n!r}")
    acc: dict = {}
    for m in range(n):
        _fma(acc, comb(n, m) * factorial(n - m), lah_bell_poly(m), 1)
    return _finish(acc)


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
