"""Exact scalar and polynomial arithmetic.

Scalars are arbitrary-precision integers, or rationals (``fractions.Fraction``,
always in lowest terms with a positive denominator) where a real denominator
appears.  Polynomials are sparse multivariate polynomials over those scalars in
the fixed, ordered indeterminate set ``("x", "y", "lam", "alpha")``.

A :class:`MultiPoly` stores a map from exponent vectors to nonzero exact
coefficients.  Integer input stays integer, so integer polynomials never pay
for a gcd; a ``Fraction`` with denominator 1, given or computed, is stored as
its ``int``::

    x^2*y + 3  ->  {(2, 1, 0, 0): 1, (0, 0, 0, 0): 3}

The zero polynomial is the empty map.  Two polynomials are equal iff their
term maps are equal, so canonical-form equality is decidable and cheap.
There is no floating point anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Union

__all__ = [
    "Rational",
    "INDETERMINATES",
    "MultiPoly",
    "falling_factorial",
    "rising_factorial",
    "generalized_falling",
]

# Arbitrary-precision exact rational scalar.  The stdlib type already keeps
# values in lowest terms with a positive denominator and raises
# ZeroDivisionError on division by zero, which is exactly the contract needed.
Rational = Fraction

INDETERMINATES = ("x", "y", "lam", "alpha")

_VAR_INDEX = {name: i for i, name in enumerate(INDETERMINATES)}
_NVARS = len(INDETERMINATES)
_ZERO_EXP = (0,) * _NVARS

Scalar = Union[int, Fraction]
PolyLike = Union["MultiPoly", int, Fraction]


def _var_index(name: str) -> int:
    try:
        return _VAR_INDEX[name]
    except KeyError:
        message = f"unknown indeterminate {name!r}, expected one of {INDETERMINATES}"
        raise ValueError(message) from None


def _as_coeff(value: Scalar) -> Scalar:
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"not an exact scalar: {value!r}")


class MultiPoly:
    """Immutable sparse polynomial in x, y, lam, alpha with exact coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        canonical: dict[tuple[int, int, int, int], Scalar] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != _NVARS or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector: {exps!r}")
                c = _as_coeff(coeff)
                if c != 0:
                    canonical[exps] = c
        self._terms = canonical

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> MultiPoly:
        return cls()

    @classmethod
    def const(cls, value: Scalar) -> MultiPoly:
        return cls({_ZERO_EXP: value})

    @classmethod
    def var(cls, name: str) -> MultiPoly:
        """The polynomial consisting of the single indeterminate `name`."""
        exps = [0] * _NVARS
        exps[_var_index(name)] = 1
        return cls({tuple(exps): 1})

    @classmethod
    def _coerce(cls, value: PolyLike) -> MultiPoly:
        if isinstance(value, MultiPoly):
            return value
        return cls.const(value)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[tuple[int, int, int, int], Scalar]]:
        """Iterate terms in the deterministic rendering order."""
        return iter(sorted(self._terms.items(), key=_term_sort_key, reverse=True))

    def coefficient(self, exps: tuple[int, ...]) -> Scalar:
        return self._terms.get(tuple(exps), 0)

    def degree(self, name: str) -> int:
        """Degree in one indeterminate; zero polynomial has degree 0 by convention."""
        i = _var_index(name)
        return max((exps[i] for exps in self._terms), default=0)

    def total_degree(self) -> int:
        return max((sum(exps) for exps in self._terms), default=0)

    def is_constant(self) -> bool:
        return all(exps == _ZERO_EXP for exps in self._terms)

    def constant_term(self) -> Scalar:
        return self._terms.get(_ZERO_EXP, 0)

    def as_rational(self) -> Fraction:
        """The value of a constant polynomial; error if any indeterminate survives."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.constant_term())

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: PolyLike) -> MultiPoly:
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        out = dict(self._terms)
        _fma(out, 1, other, 1)
        return _finish(out)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return _from_canonical({exps: -c for exps, c in self._terms.items()})

    def __sub__(self, other: PolyLike) -> MultiPoly:
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        out = dict(self._terms)
        _fma(out, -1, other, 1)
        return _finish(out)

    def __rsub__(self, other: PolyLike) -> MultiPoly:
        return (-self) + other

    def __mul__(self, other: PolyLike) -> MultiPoly:
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        out: dict[tuple[int, int, int, int], Scalar] = {}
        _fma(out, 1, self, other)
        return _finish(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> MultiPoly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = MultiPoly.const(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == MultiPoly.const(other)._terms
        return NotImplemented

    __hash__ = None  # mutable-looking container semantics; not used as dict key

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, PolyLike]) -> MultiPoly:
        """Exact substitution of polynomials (or scalars) for indeterminates.

        Unbound indeterminates pass through unchanged, so a partial binding
        yields another polynomial and a full binding yields a constant one.
        """
        bound = {_var_index(n): MultiPoly._coerce(v) for n, v in bindings.items()}
        out: dict[tuple[int, int, int, int], Scalar] = {}
        for exps, coeff in self._terms.items():
            residual = [0] * _NVARS
            factor: PolyLike = 1
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if i in bound:
                    factor = factor * bound[i] ** e
                else:
                    residual[i] = e
            _fma(out, coeff, factor, _from_canonical({tuple(residual): 1}))
        return _finish(out)

    def evaluate(self, bindings: Mapping[str, Scalar]) -> MultiPoly:
        """Partial evaluation at exact rational points (see :meth:`substitute`)."""
        return self.substitute({n: _as_coeff(v) for n, v in bindings.items()})

    def derivative(self, name: str = "x") -> MultiPoly:
        """Formal partial derivative with respect to one indeterminate."""
        i = _var_index(name)
        out: dict[tuple[int, int, int, int], Scalar] = {}
        for exps, coeff in self._terms.items():
            e = exps[i]
            if e == 0:
                continue
            lowered = list(exps)
            lowered[i] = e - 1
            out[tuple(lowered)] = coeff * e
        return _finish(out)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.terms():
            mono = _monomial(exps)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


@lru_cache(maxsize=1 << 13)
def _monomial(exps: tuple[int, int, int, int]) -> str:
    # The rendering of one exponent vector ("x^2*lam", "" for the constant),
    # made once: the coefficients of one series share most of their monomials.
    return "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(INDETERMINATES, exps) if e > 0)


def _term_sort_key(item: tuple[tuple[int, int, int, int], Scalar]):
    # Sorted in reverse: descending total degree, then lexicographic with
    # x > y > lam > alpha.  Exponent vectors are distinct, so no two keys tie.
    exps = item[0]
    return (sum(exps), exps)


def _from_canonical(terms: dict[tuple[int, int, int, int], Scalar]) -> MultiPoly:
    # Callers pass only canonical coefficients; outside input goes through __init__.
    poly = MultiPoly.__new__(MultiPoly)
    poly._terms = terms
    return poly


# -- the multiply-accumulate kernel ----------------------------------------
# Every sum of products in the library (ring products, series recurrences,
# family sums) accumulates into one plain term dict with _fma, in place, and
# canonicalizes once with _finish.  A scalar lands on the constant exponent
# vector, so one dict serves scalar and polynomial sums alike.


def _fma(out: dict[tuple[int, int, int, int], Scalar], c: Scalar, a: PolyLike, b: PolyLike) -> None:
    """out += c*a*b in place, for a scalar c and scalar or MultiPoly a, b.

    Zero and integral-Fraction coefficients may appear in out until _finish.
    """
    get = out.get
    if type(a) is not MultiPoly:
        if type(b) is not MultiPoly:
            out[_ZERO_EXP] = get(_ZERO_EXP, 0) + c * a * b
            return
        a, b = b, a
    if type(b) is not MultiPoly:
        c = c * b
        for exps, ca in a._terms.items():
            out[exps] = get(exps, 0) + c * ca
        return
    if len(a._terms) > len(b._terms):
        a, b = b, a
    for (a0, a1, a2, a3), ca in a._terms.items():
        ca = c * ca
        for (b0, b1, b2, b3), cb in b._terms.items():
            exps = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            out[exps] = get(exps, 0) + ca * cb


def _finish(out: dict[tuple[int, int, int, int], Scalar], poly: bool = True) -> PolyLike:
    """The canonical value of an _fma accumulation: zero terms dropped and
    integral Fractions stored as ints.

    A MultiPoly, or with poly false the scalar on the constant exponent
    vector (the caller knows no polynomial entered the sum).
    """
    if not poly:
        return _as_coeff(out.get(_ZERO_EXP, 0))
    return _from_canonical(
        {
            exps: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for exps, c in out.items()
            if c
        }
    )


def falling_factorial(p: PolyLike, n: int) -> MultiPoly:
    """(p)_n = p (p-1) ... (p-n+1), with (p)_0 = 1."""
    return generalized_falling(p, n, 1)


def rising_factorial(p: PolyLike, n: int) -> MultiPoly:
    """<p>_n = p (p+1) ... (p+n-1), with <p>_0 = 1."""
    return generalized_falling(p, n, -1)


def generalized_falling(p: PolyLike, n: int, step: PolyLike) -> MultiPoly:
    """Product p (p-step) (p-2*step) ... (p-(n-1)*step).

    A step of 1 gives the falling factorial, -1 the rising factorial, and a
    symbolic step the degenerate falling factorial with that parameter.
    """
    if n < 0:
        raise ValueError("factorial length must be nonnegative")
    for last in _falling_prefixes(p, n, step):
        pass  # keep only the last prefix, not all n+1
    return last


def _falling_prefixes(p: PolyLike, n: int, step: PolyLike) -> Iterator[MultiPoly]:
    """The n+1 stepped falling products (p)_{0,step}, ..., (p)_{n,step}, one
    polynomial product each.

    Every factorial basis is a run of these: x^k is (x)_{k,0}, (x)_k y^k is
    (xy)_{k,y}, and the rising <a+1>_k is (a+k)_{k,1} read from its top factor.
    """
    factor = MultiPoly._coerce(p)
    step = MultiPoly._coerce(step)
    result = MultiPoly.const(1)
    yield result
    for _ in range(n):
        result = result * factor
        factor = factor - step
        yield result
