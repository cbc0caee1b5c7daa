"""Exact scalar and polynomial arithmetic.

Scalars are arbitrary-precision integers, or rationals (``fractions.Fraction``,
always in lowest terms with a positive denominator) where a real denominator
appears.  Polynomials are sparse multivariate polynomials over those scalars in
the fixed, ordered indeterminate set ``("x", "y", "lam", "alpha")``.

A :class:`MultiPoly` stores a map from exponent vectors to nonzero exact
coefficients.  Integer input stays integer, so integer polynomials never pay
for a gcd; a ``Fraction`` with denominator 1, given or computed, is stored as
its ``int``.  Each exponent vector is packed into one int of five
``_WIDTH``-bit fields, the total degree on top, then x, y, lam and alpha
(Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007)::

    x^2*y + 3  ->  {3 << 64 | 2 << 48 | 1 << 32: 1, 0: 3}

so a monomial product is one int add, and descending int order is the
rendering order.  The public surface speaks exponent tuples and packs them at
the boundary.  A total degree past :data:`MAX_DEGREE` raises ``ValueError``,
and every product whose degree is known before it starts is refused by one
precheck, :func:`_degree_index`.  The fields are 16 bits wide: an answer of
degree d holds on the order of d^2/2 terms, so memory runs out long before
degree 65535, and narrower fields were no faster beyond run-to-run noise.

The zero polynomial is the empty map.  Two polynomials are equal iff their
term maps are equal, so canonical-form equality is decidable and cheap.
There is no floating point anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Union

from . import _EXPORTS

__all__ = _EXPORTS["exact"]

# Arbitrary-precision exact rational scalar.  The stdlib type already keeps
# values in lowest terms with a positive denominator and raises
# ZeroDivisionError on division by zero, which is exactly the contract needed.
Rational = Fraction

INDETERMINATES = ("x", "y", "lam", "alpha")

_NVARS = len(INDETERMINATES)

# The packed layout.  The total degree bounds every exponent, so while it fits
# its field no field can carry, and a carry out of any field shows in the top
# one: every key of a valid vector is below _LIMIT.
_WIDTH = 16
MAX_DEGREE = (1 << _WIDTH) - 1
# Each indeterminate's field, by name, in INDETERMINATES order: x highest.
_SHIFTS = {name: _WIDTH * i for name, i in zip(INDETERMINATES, reversed(range(_NVARS)))}
_DEGREE = _WIDTH * _NVARS
_LIMIT = 1 << (_DEGREE + _WIDTH)

Scalar = Union[int, Fraction]
PolyLike = Union["MultiPoly", int, Fraction]


def _pack(exps: tuple[int, ...]) -> int:
    """The key of an exponent vector, or -1 if it is not one."""
    exps = tuple(exps)
    if len(exps) != _NVARS or any(type(e) is not int or e < 0 for e in exps):
        return -1
    key = sum(exps) << _DEGREE
    return sum((e << s for e, s in zip(exps, _SHIFTS.values())), key) if key < _LIMIT else -1


def _unpack(key: int) -> tuple[int, int, int, int]:
    return tuple((key >> s) & MAX_DEGREE for s in _SHIFTS.values())


def _index(value: int, what: str) -> int:
    """value, if it is a nonnegative int; else ValueError naming what it is.

    The type must be int itself: a bool, or any other subclass of int, is refused.
    """
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


def _degree_index(value: int, what: str, per: int) -> int:
    """value, if it is an _index and per * value, the total degree it gives,
    is within MAX_DEGREE; else ValueError.

    The one degree precheck: a product of nonzero polynomials has the sum of
    their degrees, so a request whose every factor is nonzero and of degree
    per is refused here, before its first product.
    """
    if per * _index(value, what) > MAX_DEGREE:
        raise ValueError(f"polynomial total degree past {MAX_DEGREE}")
    return value


def _named(table: Mapping, name: str, what: str):
    """table[name]; else ValueError naming what was asked for and every name in table.

    The one rule for every lookup by name: indeterminates, triangle kinds,
    generating functions, families and identity ids.
    """
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown {what} {name!r}, expected one of {tuple(table)}") from None


def _shown(value: str | Scalar) -> str:
    """The text of value for a message, cut to its first 40 characters and
    "...": a message names what it is about, but never prints a huge value
    whole.  A scalar's text is that of _scalar_text, but only its leading
    digits are made, so no digit limit applies and a huge value costs a few
    divisions, not a full conversion.
    """
    if isinstance(value, str):
        text = value
    else:
        num = value.numerator
        text = "-" * (num < 0) + _leading_digits(abs(num), 41)
        if value.denominator != 1 and len(text) <= 40:
            text += "/" + _leading_digits(value.denominator, 40)
    return text if len(text) <= 40 else text[:40] + "..."


def _leading_digits(n: int, width: int) -> str:
    """The first width >= 1 decimal digits of the int n >= 0.

    The digit count comes from bit_length: log10(2) rounded up to 14 places
    overcounts by at most one digit below 10^13 bits, so one power of ten
    settles it.
    """
    digits = n.bit_length() * 30102999566399 // 10**14 + 1
    if digits > 1 and n < 10 ** (digits - 1):
        digits -= 1
    return str(n // 10 ** (digits - width) if digits > width else n)


def _is_exact(value: object) -> bool:
    """The exact-scalar rule: an int or a Fraction, and never a bool."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _as_coeff(value: Scalar) -> Scalar:
    if not _is_exact(value):
        raise TypeError(f"not an exact scalar: {value!r}")
    return value.numerator if isinstance(value, Fraction) and value.denominator == 1 else value


class MultiPoly:
    """Immutable sparse polynomial in x, y, lam, alpha with exact coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        canonical: dict[int, Scalar] = {}
        if terms:
            for exps, coeff in terms.items():
                if (key := _pack(exps)) < 0:
                    raise ValueError(f"bad exponent vector: {exps!r} (degree limit {MAX_DEGREE})")
                c = _as_coeff(coeff)
                if c != 0:
                    canonical[key] = c
        self._terms = canonical

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> MultiPoly:
        return cls()

    @classmethod
    def const(cls, value: Scalar) -> MultiPoly:
        return cls({(0,) * _NVARS: value})

    @classmethod
    def var(cls, name: str) -> MultiPoly:
        """The polynomial consisting of the single indeterminate `name`."""
        return _from_canonical({1 << _DEGREE | 1 << _named(_SHIFTS, name, "indeterminate"): 1})

    @classmethod
    def _coerce(cls, value: PolyLike) -> MultiPoly:
        return value if isinstance(value, MultiPoly) else cls.const(value)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[tuple[int, int, int, int], Scalar]]:
        """Iterate terms in the deterministic rendering order: descending total
        degree, then lexicographic with x > y > lam > alpha."""
        terms = self._terms
        return ((_unpack(key), terms[key]) for key in sorted(terms, reverse=True))

    def coefficient(self, exps: tuple[int, ...]) -> Scalar:
        return self._terms.get(_pack(exps), 0)

    def degree(self, name: str) -> int:
        """Degree in one indeterminate; zero polynomial has degree 0 by convention."""
        shift = _named(_SHIFTS, name, "indeterminate")
        return max((key >> shift & MAX_DEGREE for key in self._terms), default=0)

    def total_degree(self) -> int:
        return max(self._terms, default=0) >> _DEGREE

    def is_constant(self) -> bool:
        return not any(self._terms)

    def constant_term(self) -> Scalar:
        return self._terms.get(0, 0)

    def as_rational(self) -> Fraction:
        """The value of a constant polynomial; error if any indeterminate survives."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.constant_term())

    # -- ring operations ---------------------------------------------------
    # An operand is a MultiPoly or an exact scalar (_is_exact): a bool is
    # refused as a float is.

    def __add__(self, other: PolyLike) -> MultiPoly:
        if not (isinstance(other, MultiPoly) or _is_exact(other)):
            return NotImplemented
        out = dict(self._terms)
        _fma(out, 1, other, 1)
        return _finish(out)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return _from_canonical({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: PolyLike) -> MultiPoly:
        if not (isinstance(other, MultiPoly) or _is_exact(other)):
            return NotImplemented
        out = dict(self._terms)
        _fma(out, -1, other, 1)
        return _finish(out)

    def __rsub__(self, other: PolyLike) -> MultiPoly:
        return (-self) + other

    def __mul__(self, other: PolyLike) -> MultiPoly:
        if not (isinstance(other, MultiPoly) or _is_exact(other)):
            return NotImplemented
        out: dict[int, Scalar] = {}
        _fma(out, 1, self, other)
        return _finish(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> MultiPoly:
        if _degree_index(exponent, "polynomial exponent", self.total_degree()):
            return _power(self, exponent)
        return MultiPoly.const(1)

    def __eq__(self, other: object) -> bool:
        if not (isinstance(other, MultiPoly) or _is_exact(other)):
            return NotImplemented
        return self._terms == MultiPoly._coerce(other)._terms

    __hash__ = None  # mutable-looking container semantics; not used as dict key

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, PolyLike]) -> MultiPoly:
        """Exact substitution of polynomials (or scalars) for indeterminates.

        Unbound indeterminates pass through unchanged, so a partial binding
        yields another polynomial and a full binding yields a constant one.
        """
        bound = {
            _named(_SHIFTS, n, "indeterminate"): MultiPoly._coerce(v) for n, v in bindings.items()
        }
        out: dict[int, Scalar] = {}
        for key, coeff in self._terms.items():
            residual = key
            factor: PolyLike = 1
            for shift, value in bound.items():
                e = key >> shift & MAX_DEGREE
                if e:
                    factor = factor * value**e
                    residual -= e << shift | e << _DEGREE
            _fma(out, coeff, factor, _from_canonical({residual: 1}))
        return _finish(out)

    def evaluate(self, bindings: Mapping[str, Scalar]) -> MultiPoly:
        """Partial evaluation at exact rational points (see :meth:`substitute`)."""
        return self.substitute({n: _as_coeff(v) for n, v in bindings.items()})

    def derivative(self, name: str = "x") -> MultiPoly:
        """Formal partial derivative with respect to one indeterminate."""
        shift = _named(_SHIFTS, name, "indeterminate")
        step = 1 << shift | 1 << _DEGREE
        out: dict[int, Scalar] = {}
        for key, coeff in self._terms.items():
            e = key >> shift & MAX_DEGREE
            if e:
                out[key - step] = coeff * e
        return _finish(out)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return " ".join(self.rendered_terms())

    def rendered_terms(self) -> Iterator[str]:
        """The pieces of ``str(self)``, one per term, made one at a time.

        The first piece carries its sign ("-3*x"), each later one its
        operator ("+ x^2", "- 2"), and the zero polynomial is the one piece
        "0".  Joined by single spaces they are ``str(self)``, so a large
        polynomial can be written out without its whole text existing at once.
        """
        terms = self._terms
        if not terms:
            yield "0"
            return
        # Each monomial appears once in a polynomial, so one with more terms
        # than the cache holds would only evict its own entries, and the
        # cache's table would be rebuilt as they churn: it skips the cache.
        monomial = _monomial if len(terms) <= _MONOMIALS else _monomial.__wrapped__
        first = True
        # Descending keys are the rendering order, and the sorted list holds
        # one slot per term and no new object.
        for key in sorted(terms, reverse=True):
            coeff = terms[key]
            mono = monomial(key)
            mag = abs(coeff)
            if not mono:
                body = _scalar_text(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{_scalar_text(mag)}*{mono}"
            if first:
                yield body if coeff > 0 else f"-{body}"
                first = False
            else:
                yield f"+ {body}" if coeff > 0 else f"- {body}"

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


_MONOMIALS = 1 << 13


@lru_cache(maxsize=_MONOMIALS)
def _monomial(key: int) -> str:
    # The rendering of one exponent vector ("x^2*lam", "" for the constant),
    # made once: the coefficients of one series share most of their monomials.
    fields = _SHIFTS.items()
    return "*".join(f"{v}^{e}" if e > 1 else v for v, s in fields if (e := key >> s & MAX_DEGREE))


def _scalar_text(value: Scalar) -> str:
    """str(value) for an exact scalar, at any int/str digit limit.

    str(int) refuses past the interpreter's limit (4300 digits by default),
    and lifting the limit would change a setting of the whole process, seen
    by every thread.  So a value past it is written through Decimal, which
    has no limit, and a shorter one by str() itself.
    """
    try:
        return str(value)
    except ValueError:  # past the int/str digit limit
        from decimal import Decimal  # only a long value needs it

        text = str(Decimal(value.numerator))
        return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


def _from_canonical(terms: dict[int, Scalar]) -> MultiPoly:
    # Callers pass only canonical coefficients; outside input goes through __init__.
    poly = MultiPoly.__new__(MultiPoly)
    poly._terms = terms
    return poly


# The indeterminates as polynomials, made once for every module.
_X, _Y, _LAM, _ALPHA = map(MultiPoly.var, INDETERMINATES)


def _power(base, e: int):
    """base**e for e >= 1 by square-and-multiply, for MultiPoly and TruncatedSeries.

    The ring's own * does every product.  The result starts as base squared
    up to e's lowest set bit, so no product is taken with one, and e costs
    e.bit_length() + bin(e).count("1") - 2 products.
    """
    while not e & 1:
        base = base * base
        e >>= 1
    result = base
    while e := e >> 1:
        base = base * base
        if e & 1:
            result = result * base
    return result


# -- the multiply-accumulate kernel ----------------------------------------
# Every sum of products in the library (ring products, series recurrences,
# family sums) accumulates into one plain term dict with _fma, in place, and
# canonicalizes once with _finish.  A scalar lands on the constant key 0, so
# one dict serves scalar and polynomial sums alike.


def _fma(out: dict[int, Scalar], c: Scalar, a: PolyLike, b: PolyLike) -> None:
    """out += c*a*b in place, for a scalar c and scalar or MultiPoly a, b.

    Zero and integral-Fraction coefficients may appear in out until _finish,
    and so may keys past the degree limit, which _finish refuses.  Every sum
    of products in the library goes through here, so no ``acc = acc + term``
    copies a polynomial per term.  The inner loop is one int add, one get
    and one store per term product; map/zip and dict.update forms of it were
    slower, the big-int arithmetic being most of each step.
    """
    get = out.get
    if type(a) is not MultiPoly:
        if type(b) is not MultiPoly:
            out[0] = get(0, 0) + c * a * b
            return
        a, b = b, a
    if type(b) is not MultiPoly:
        c = c * b
        for key, ca in a._terms.items():
            out[key] = get(key, 0) + c * ca
        return
    if len(a._terms) > len(b._terms):
        a, b = b, a
    for ka, ca in a._terms.items():
        ca = c * ca
        for kb, cb in b._terms.items():
            key = ka + kb
            out[key] = get(key, 0) + ca * cb


def _finish(out: dict[int, Scalar], poly: bool = True) -> PolyLike:
    """The canonical value of an _fma accumulation: zero terms dropped and
    integral Fractions stored as ints.

    A MultiPoly, or with poly false the scalar on the constant key (the
    caller knows no polynomial entered the sum).  A key past the degree limit
    raises ValueError: the top field holds the total degree, so a carry out
    of any field lands there.
    """
    if not poly:
        return _as_coeff(out.get(0, 0))
    if out and max(out) >= _LIMIT:
        raise ValueError(f"polynomial total degree past {MAX_DEGREE}")
    return _from_canonical({
        key: c.numerator if type(c) is Fraction and c.denominator == 1 else c
        for key, c in out.items() if c
    })


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

    Every factor p - k*step but one has degree d = max(deg p, deg step): the
    degree-d parts of p and k*step can cancel only at the k where the two
    agree on the leading monomial of step (k = 0 when deg p < deg step).  So
    one subtraction gives the product's exact degree, and a product past
    MAX_DEGREE is refused before it starts.  If that factor is zero
    (p = k*step), the product is 0.
    """
    q, s = MultiPoly._coerce(p), MultiPoly._coerce(step)
    d = max(q.total_degree(), s.total_degree())
    degree = d * _index(n, "factorial length")
    if s._terms and (lead := max(s._terms)) >> _DEGREE == d:
        k = Fraction(q._terms.get(lead, 0), s._terms[lead])
        if k.denominator == 1 and 0 <= k < n:
            factor = q - k.numerator * s
            if factor.is_zero:
                return factor
            degree -= d - factor.total_degree()
    _degree_index(degree, "product degree", 1)
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
