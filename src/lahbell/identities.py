"""Executable catalog of the verified identities.

Every entry states one identity, computes both sides by independent routes
(closed form vs. recurrence, finite sum vs. generating function, exact value
vs. certified enclosure), and reports pass or fail.  A failure always carries
the smallest failing index with both sides rendered exactly, so a regression
is immediately reproducible.

Identity ids are stable catalog keys.  Anchors are plain restatements of the
identity in ASCII notation: L(n,k) and S1/S2(n,k) are the triangle entries,
BL_n and B_n the ordered-list and set partition counts, BL_n(x) and B_n(x)
their polynomial forms, (x)_k / <x>_k the falling and rising factorials,
(x)_{k,lam} the stepped falling factorial, and Lag_n(x) the factorial-weighted
Laguerre polynomial of order alpha.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial
from operator import ne
from typing import Callable, Iterable, NamedTuple, Optional

from .dobinski import lah_bell_dobinski
from .enumeration import (
    ENUMERATION_BOUNDS,
    count_ordered_partitions,
    count_permutations_by_cycles,
    count_set_partitions,
)
from .exact import MultiPoly, PolyLike, _finish, _fma, falling_factorial, rising_factorial
from .families import (
    bell_poly,
    bivariate_bell_poly,
    bivariate_lah_bell_poly,
    degenerate_bell_poly,
    degenerate_lah_bell_poly,
    lah_bell_derivative,
    lah_bell_poly,
    lah_bell_recurrence_step,
    laguerre_poly,
    triangle_sum,
)
from .series import (
    TruncatedSeries,
    exp_t_minus_one,
    gf_catalog,
    identity_t,
    neg_log_one_minus_t,
)
from .triangles import (
    bell_number,
    lah,
    lah_bell_number,
    lah_binomial_form,
    lah_product_form,
    lah_ratio_form,
    lah_via_stirling,
    stirling1_signed,
    stirling2,
    stirling2_via_lah,
)

__all__ = ["IdentityRecord", "CATALOG_IDS", "run_suite", "oracle_records", "ORACLE_IDS"]

_X = MultiPoly.var("x")

# Precision used by the two enclosure-based entries.
_NUMERIC_EPS = Fraction(1, 10**20)
# Arguments at which enclosures are compared against exact evaluations.
_DOBINSKI_ARGS = (Fraction(1, 2), Fraction(1), Fraction(3))

Counterexample = Optional[dict[str, str]]
Check = Callable[[int], Counterexample]
Cases = Iterable[tuple[dict, object, object]]


class IdentityRecord(NamedTuple):
    id: str
    anchor: str
    range: str
    status: str
    counterexample: Counterexample = None

    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        payload = {
            "id": self.id,
            "anchor": self.anchor,
            "range": self.range,
            "status": self.status,
        }
        if self.counterexample is not None:
            payload["counterexample"] = dict(self.counterexample)
        return payload


def _record(key: str, anchor: str, span: str, counterexample: Counterexample) -> IdentityRecord:
    status = "pass" if counterexample is None else "fail"
    return IdentityRecord(key, anchor, span, status, counterexample)


def _fail(**kwargs: object) -> dict[str, str]:
    return {key: str(value) for key, value in kwargs.items()}


def _first_mismatch(
    cases: Cases,
    differ: Callable[[object, object], bool] = ne,
    keys: tuple[str, str] = ("lhs", "rhs"),
) -> Counterexample:
    """The first (labels, left, right) case with differ(left, right), as a counterexample.

    The two sides are reported under keys.  Checkers yield their cases lazily in
    increasing n and build each family value when a case first needs it, so no
    value past the first mismatch is built and the counterexample carries the
    smallest failing n.
    """
    left_key, right_key = keys
    for labels, left, right in cases:
        if differ(left, right):
            return _fail(**labels, **{left_key: left, right_key: right})
    return None


# -- checker factories ------------------------------------------------------
# Rows reach families, row sums, counters and gf_catalog through lambdas or
# function bodies, so every call goes through the module-level name at check
# time and anything that rebinds those names (a test double, a tracer) sees it.
# Family values are built through _built, keyed by the builder as that name
# resolves, so checks that need the same family share one build.  _run clears
# it, so no value outlives the triangle memo it was built from.


@lru_cache(maxsize=None)
def _built(build: Callable[[int], PolyLike], n: int) -> PolyLike:
    """build(n), built once per run."""
    return build(n)


class _Sum(NamedTuple):
    """One route: lhs(n) = sum_k sign^(n-k) triangle(n,k) basis(k)."""

    lhs: Callable[[int], PolyLike]
    triangle: Callable[[int, int], int]
    basis: Callable[[int], PolyLike]
    sign: int = 1
    label: Optional[dict[str, str]] = None


def _sums(*routes: _Sum) -> Check:
    """Every route is checked at n before n+1; each basis(k) is built once per run."""

    def cases(cap: int) -> Cases:
        for n in range(cap + 1):
            for route in routes:
                bases = map(partial(_built, route.basis), range(n + 1))
                rhs = triangle_sum(n, route.triangle, bases, route.sign)
                yield {"n": n, **(route.label or {})}, route.lhs(n), rhs

    return lambda cap: _first_mismatch(cases(cap))


def _gf(name: str, family: Callable[[int], PolyLike]) -> Check:
    """The egf coefficients of gf_catalog(name) equal family(n)."""

    def cases(cap: int) -> Cases:
        gf = gf_catalog(name, cap)
        return (({"n": n}, gf.egf_coefficient(n), family(n)) for n in range(cap + 1))

    return lambda cap: _first_mismatch(cases(cap))


def _powers(base: Callable[[int], TruncatedSeries], triangle: Callable[[int, int], int]) -> Check:
    """The egf coefficient n of base^k / k! equals triangle(n,k), for k <= n."""

    def cases(cap: int) -> Cases:
        series = base(cap)
        for k in range(cap + 1):
            power = (series**k).scale(Fraction(1, factorial(k)))
            for n in range(k, cap + 1):
                yield {"n": n, "k": k}, power.egf_coefficient(n), triangle(n, k)

    return lambda cap: _first_mismatch(cases(cap))


def _entrywise(left: Callable[[int, int], int], right: Callable[[int, int], int]) -> Check:
    """left(n,k) equals right(n,k), for k <= n."""
    return lambda cap: _first_mismatch(
        ({"n": n, "k": k}, left(n, k), right(n, k)) for n in range(cap + 1) for k in range(n + 1)
    )


def _enclosure(family: Callable[[int], PolyLike], xs: tuple[Fraction, ...] = ()) -> Check:
    """lah_bell_dobinski(n, x) encloses family(n) at x, for each x in xs (labelled) or at x = 1.

    family(n) is built once per n.  With xs it is a polynomial in x, evaluated
    at each x; without, it is the number itself.
    """

    def cases(cap: int) -> Cases:
        for n in range(cap + 1):
            value = family(n)
            if not xs:
                yield {"n": n}, lah_bell_dobinski(n, 1, _NUMERIC_EPS), value
            for x in xs:
                exact = value.evaluate({"x": x}).as_rational()
                yield {"n": n, "x": x}, lah_bell_dobinski(n, x, _NUMERIC_EPS), exact

    return lambda cap: _first_mismatch(
        cases(cap), lambda enclosure, value: not enclosure.contains(value), ("enclosure", "exact")
    )


def _oracle(count: Callable[[int], dict[int, int]], entry: Callable[[int, int], int]) -> Check:
    """The brute-force counts by k equal the nonzero entries of triangle row n.

    The row total (BL_n, B_n) needs no check of its own: it is the sum of the
    same memo row whose nonzero entries have just matched.
    """
    return lambda cap: _first_mismatch(
        ({"n": n}, count(n), {k: value for k in range(n + 1) if (value := entry(n, k)) != 0})
        for n in range(cap + 1)
    )


# -- bespoke checkers, for identities of their own shape -------------------


def _check_eq11_eq16(cap: int) -> Counterexample:
    def cases() -> Cases:
        forms = (
            ("product form", lah_product_form),
            ("binomial form", lah_binomial_form),
            ("ratio form", lah_ratio_form),
        )
        for n in range(1, cap + 1):
            for k in range(1, n + 1):
                reference = lah(n, k)
                for label, form in forms:
                    yield {"n": n, "k": k, "form": label}, form(n, k), reference

    return _first_mismatch(cases())


def _check_eq17(cap: int) -> Counterexample:
    return _first_mismatch(
        ({"n": n, "k": k}, lah(n, k + 1) * k * (k + 1), (n - k) * lah(n, k))
        for n in range(2, cap + 1)
        for k in range(1, n)
    )


def _check_thm9(cap: int) -> Counterexample:
    return _first_mismatch(
        ({"n": n}, lah_bell_recurrence_step(n, [_built(lah_bell_poly, m) for m in range(n + 1)]),
         _built(lah_bell_poly, n + 1))
        for n in range(cap + 1)
    )


def _check_thm10(cap: int) -> Counterexample:
    return _first_mismatch(
        ({"n": n}, _built(lah_bell_poly, n).derivative("x"),
         lah_bell_derivative(n, [_built(lah_bell_poly, m) for m in range(n)]))
        for n in range(1, cap + 1)
    )


_check_eq48_sum = _sums(
    _Sum(lambda n: _built(degenerate_lah_bell_poly, n), stirling1_signed,
         lambda k: _built(degenerate_bell_poly, k), -1, {"part": "coefficient sum"})
)


def _check_eq48(cap: int) -> Counterexample:
    order = min(cap, 12)
    composed = gf_catalog("degenerate_bell", order).compose(neg_log_one_minus_t(order))
    direct = gf_catalog("degenerate_lah_bell", order)
    return _first_mismatch(
        ({"n": n, "part": "series composition"}, composed.coefficient(n), direct.coefficient(n))
        for n in range(order + 1)
    ) or _check_eq48_sum(cap)


def _check_laguerre_conv(cap: int) -> Counterexample:
    def cases() -> Cases:
        alpha = MultiPoly.var("alpha")
        for n in range(cap + 1):
            acc: dict = {}
            for m in range(n + 1):
                _fma(acc, comb(n, m), _built(lah_bell_poly, m), _built(laguerre_poly, n - m))
            total = _finish(acc)
            # The target is free of x, so a surviving x is always a mismatch.
            labels = {"n": n, "issue": "x does not cancel"} if total.degree("x") != 0 else {"n": n}
            yield labels, total, rising_factorial(alpha + 1, n)

    return _first_mismatch(cases())


class _Entry(NamedTuple):
    id: str
    anchor: str
    default_max: int
    check: Check
    range_template: str = "n <= {cap}"

    def range_text(self, cap: int) -> str:
        return self.range_template.format(cap=cap)


_CATALOG: tuple[_Entry, ...] = (
    _Entry(
        "eq3", "x^n = sum_{k=0..n} S2(n,k) (x)_k", 20,
        _sums(_Sum(lambda n: _X**n, stirling2, lambda k: falling_factorial(_X, k))),
    ),
    _Entry(
        "eq4", "(e^t - 1)^k / k! = sum_{n>=k} S2(n,k) t^n/n!", 15,
        _powers(exp_t_minus_one, stirling2), "k <= n <= {cap}",
    ),
    _Entry(
        "eq8", "(x)_n = sum_{k=0..n} S1(n,k) x^k", 20,
        _sums(_Sum(lambda n: falling_factorial(_X, n), stirling1_signed, lambda k: _X**k)),
    ),
    _Entry(
        "eq9", "(log(1+t))^k / k! = sum_{n>=k} S1(n,k) t^n/n!", 15,
        _powers(lambda order: identity_t(order).log1p(), stirling1_signed), "k <= n <= {cap}",
    ),
    _Entry(
        "eq11-eq16",
        "L(n,k) = C(n-1,k-1) n!/k! = C(n,k) C(n-1,k-1) (n-k)! = (n!/k!)^2 k/(n (n-k)!)",
        30, _check_eq11_eq16, "1 <= k <= n <= {cap}",
    ),
    _Entry("eq17", "L(n,k+1) k(k+1) = (n-k) L(n,k)", 30, _check_eq17, "1 <= k < n <= {cap}"),
    _Entry(
        "eq13", "<x>_n = sum_{k=0..n} L(n,k) (x)_k", 15,
        _sums(_Sum(lambda n: rising_factorial(_X, n), lah, lambda k: falling_factorial(_X, k))),
    ),
    _Entry(
        "eq14", "(x)_n = sum_{k=0..n} (-1)^(n-k) L(n,k) <x>_k", 15,
        _sums(_Sum(lambda n: falling_factorial(_X, n), lah, lambda k: rising_factorial(_X, k), -1)),
    ),
    _Entry(
        "lemma1", "exp(1/(1-t) - 1) = sum_n BL_n t^n/n!", 20,
        _gf("lah_bell", lambda n: _built(lah_bell_number, n)),
    ),
    _Entry(
        "thm2", "B_n = sum_{k=0..n} (-1)^(n-k) BL_k S2(n,k)", 25,
        _sums(_Sum(lambda n: _built(bell_number, n), stirling2,
                   lambda k: _built(lah_bell_number, k), -1)),
    ),
    _Entry(
        "thm3", "BL_n = e^(-1) sum_{k>=0} <k>_n / k!  (certified enclosure)", 12,
        _enclosure(lambda n: _built(lah_bell_number, n)),
    ),
    _Entry(
        "lemma4", "exp(x (1/(1-t) - 1)) = sum_n BL_n(x) t^n/n!", 15,
        _gf("lah_bell_poly", lambda n: _built(lah_bell_poly, n)),
    ),
    _Entry(
        "thm5", "B_n(x) = sum_{k=0..n} (-1)^(n-k) S2(n,k) BL_k(x)", 20,
        _sums(_Sum(lambda n: _built(bell_poly, n), stirling2,
                   lambda k: _built(lah_bell_poly, k), -1)),
    ),
    _Entry(
        "thm6", "BL_n(x) = e^(-x) sum_{k>=0} <k>_n x^k / k!  (certified enclosure)", 12,
        _enclosure(lambda n: _built(lah_bell_poly, n), _DOBINSKI_ARGS),
        "n <= {cap}, x in {{1/2, 1, 3}}",
    ),
    _Entry(
        "thm7", "BL_n(x) = sum_{k=0..n} (-1)^(n-k) S1(n,k) B_k(x)", 20,
        _sums(_Sum(lambda n: _built(lah_bell_poly, n), stirling1_signed,
                   lambda k: _built(bell_poly, k), -1)),
    ),
    _Entry(
        "thm8", "S2(n,k) = sum_{l=k..n} (-1)^(n-l) S2(n,l) L(l,k)", 25,
        _entrywise(stirling2_via_lah, stirling2), "k <= n <= {cap}",
    ),
    _Entry(
        "eq30", "L(n,k) = sum_{l=k..n} (-1)^(n-l) S1(n,l) S2(l,k)", 25,
        _entrywise(lah_via_stirling, lah), "k <= n <= {cap}",
    ),
    _Entry("thm9", "BL_{n+1}(x) = x sum_{m=0..n} C(n,m) (n-m+1)! BL_m(x)", 20, _check_thm9),
    _Entry(
        "thm10", "d/dx BL_n(x) = sum_{m=0..n-1} C(n,m) (n-m)! BL_m(x)", 20,
        _check_thm10, "1 <= n <= {cap}",
    ),
    _Entry(
        "eq37", "(1 + y(e^t - 1))^x = sum_n B_n(x,y) t^n/n!", 12,
        _gf("bivariate_bell", lambda n: _built(bivariate_bell_poly, n)),
    ),
    _Entry(
        "lemma11", "(1 + y(1/(1-t) - 1))^x = sum_n BL_n(x,y) t^n/n!", 12,
        _gf("bivariate_lah_bell", lambda n: _built(bivariate_lah_bell_poly, n)),
    ),
    _Entry(
        "thm12",
        "BL_n(x,y) = sum_k (-1)^(n-k) S1(n,k) B_k(x,y) and B_n(x,y) = sum_k (-1)^(n-k) S2(n,k) BL_k(x,y)",
        12,
        _sums(
            _Sum(lambda n: _built(bivariate_lah_bell_poly, n), stirling1_signed,
                 lambda k: _built(bivariate_bell_poly, k), -1, {"direction": "S1 route"}),
            _Sum(lambda n: _built(bivariate_bell_poly, n), stirling2,
                 lambda k: _built(bivariate_lah_bell_poly, k), -1, {"direction": "S2 route"}),
        ),
    ),
    _Entry(
        "eq44", "BL_{n,lam}(x) = sum_{k=0..n} L(n,k) (x)_{k,lam}", 12,
        _gf("degenerate_lah_bell", lambda n: _built(degenerate_lah_bell_poly, n)),
    ),
    _Entry(
        "eq45-catalog", "e_lam^x(e^t - 1) = sum_n B_{n,lam}(x) t^n/n!", 12,
        _gf("degenerate_bell", lambda n: _built(degenerate_bell_poly, n)),
    ),
    _Entry(
        "eq47", "B_{n,lam}(x) = sum_{k=0..n} (-1)^(n-k) S2(n,k) BL_{k,lam}(x)", 15,
        _sums(_Sum(lambda n: _built(degenerate_bell_poly, n), stirling2,
                   lambda k: _built(degenerate_lah_bell_poly, k), -1)),
    ),
    _Entry(
        "eq48-corrected",
        "e_lam^x(t/(1-t)) expands through -log(1-t); BL_{n,lam}(x) = sum_k (-1)^(n-k) S1(n,k) B_{k,lam}(x)",
        15, _check_eq48, "n <= {cap}; composition order min({cap}, 12)",
    ),
    _Entry(
        "eq49", "(1-t)^(-alpha-1) exp(x t/(t-1)) = sum_n Lag_n(x) t^n/n!", 10,
        _gf("laguerre_weighted", lambda n: _built(laguerre_poly, n)),
    ),
    _Entry(
        "laguerre-conv", "<alpha+1>_n = sum_{m=0..n} C(n,m) BL_m(x) Lag_{n-m}(x)  (x cancels)", 10,
        _check_laguerre_conv,
    ),
)

# -- enumeration cross-checks (the `verify --oracle` extras) ---------------
# Defaults keep a full oracle pass in the seconds range, within the enumeration bounds.

_ORACLES: tuple[_Entry, ...] = (
    _Entry(
        "oracle-ordered-partitions",
        "every ordered-list partition counted once: totals by block count match L(n,k), overall total BL_n",
        min(8, ENUMERATION_BOUNDS["ordered_partitions"]),
        _oracle(lambda n: count_ordered_partitions(n), lah),
    ),
    _Entry(
        "oracle-set-partitions",
        "every set partition counted once: totals by block count match S2(n,k), overall total B_n",
        min(10, ENUMERATION_BOUNDS["set_partitions"]),
        _oracle(lambda n: count_set_partitions(n), stirling2),
    ),
    _Entry(
        "oracle-permutation-cycles",
        "every permutation counted once by cycle count: totals match |S1(n,k)|",
        min(9, ENUMERATION_BOUNDS["permutation_cycles"]),
        _oracle(
            lambda n: count_permutations_by_cycles(n), lambda n, k: abs(stirling1_signed(n, k))
        ),
    ),
)

CATALOG_IDS: tuple[str, ...] = tuple(entry.id for entry in _CATALOG)
ORACLE_IDS: tuple[str, ...] = tuple(entry.id for entry in _ORACLES)


def _run(entries: Iterable[_Entry], max_n: int) -> list[IdentityRecord]:
    """One record per entry, each over its default range capped at max_n; _built lasts one run."""
    if isinstance(max_n, bool) or not isinstance(max_n, int):
        raise ValueError(f"max_n must be an int, got {max_n!r}")
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    records = []
    try:
        for entry in entries:
            cap = min(entry.default_max, max_n)
            records.append(_record(entry.id, entry.anchor, entry.range_text(cap), entry.check(cap)))
    finally:
        _built.cache_clear()
    return records


def run_suite(selection: list[str] | str, max_n: int) -> list[IdentityRecord]:
    """Run the selected identities, each over its default range capped at max_n.

    selection is "all" (or a list containing "all") for the full catalog, or a
    list of catalog ids; records come back in catalog order.
    """
    if isinstance(selection, str):
        selection = [selection]
    unknown = [i for i in selection if i != "all" and i not in CATALOG_IDS]
    if unknown:
        raise ValueError(f"unknown identity ids {unknown}; valid ids: {', '.join(CATALOG_IDS)}")
    return _run((e for e in _CATALOG if "all" in selection or e.id in selection), max_n)


def oracle_records(max_n: int) -> list[IdentityRecord]:
    """Compare the brute-force enumerators against the triangle rows."""
    return _run(_ORACLES, max_n)
