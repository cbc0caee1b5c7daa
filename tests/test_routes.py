"""Every gf row reaches no family-side code, and every family no series code.

The identities hold each gf row against a family built from the triangles,
the family sums or the enumerations, so the two routes must not share that
code.  Each side is built alone, a gf row from an empty gf catalog and a
family from empty triangle memos, under ``sys.setprofile``, and every Python
function it enters is collected by module and qualified name.  The two series
halves of eq48-corrected are held apart the same way, and so are the count
and triangle sides of each oracle row.
"""

import inspect
import sys
from functools import partial
from types import CodeType

import pytest

from lahbell import enumeration, identities, series, triangles
from lahbell.families import FAMILIES, poly_family
from lahbell.series import GF_NAMES, gf_catalog, neg_log_one_minus_t

# The rows whose exponent is rational in t, each one first-order solve.
SOLVED_ROWS = (
    "lah_bell", "lah_bell_poly", "bivariate_lah_bell", "degenerate_lah_bell", "laguerre_weighted"
)

# The modules of the other side: the families, the triangles they read, the
# checks themselves, the enumerations and the Dobinski sums.
FAMILY_SIDE = {
    "lahbell.families",
    "lahbell.triangles",
    "lahbell.identities",
    "lahbell.enumeration",
    "lahbell.dobinski",
}


def entered(build):
    """The (module, code object) of every Python function build() enters."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_globals.get("__name__"), frame.f_code))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        build()
    finally:
        sys.setprofile(previous)
    return seen


def _name(code):
    return getattr(code, "co_qualname", code.co_name)


def reached(build):
    """The (module, qualified name) of every Python function build() enters."""
    return {(module, _name(code)) for module, code in entered(build)}


@pytest.mark.parametrize("name", GF_NAMES)
def test_gf_row_reaches_no_family_side_code(name):
    gf_catalog.cache_clear()
    seen = reached(lambda: gf_catalog(name, 12))
    shared = sorted(f"{module}.{function}" for module, function in seen if module in FAMILY_SIDE)
    assert shared == []
    if name in SOLVED_ROWS:
        assert ("lahbell.series", "_first_order") in seen


def _with_nested(*functions):
    """The code objects of functions and of the comprehensions inside them."""
    codes = [function.__code__ for function in functions]
    for code in codes:
        codes.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return set(codes)


# What the two series halves of eq48-corrected may share, besides the exact
# kernel: the catalog lookup and the series plumbing.
EQ48_SHARED = _with_nested(gf_catalog.__wrapped__, series._gf_terms, series._from_egf, series._has_poly)


def test_eq48_series_halves_share_no_series_route():
    def series_code(build):
        gf_catalog.cache_clear()
        return {code for module, code in entered(build) if module == "lahbell.series"}

    composed = series_code(lambda: gf_catalog("degenerate_bell", 12).compose(neg_log_one_minus_t(12)))
    direct = series_code(lambda: gf_catalog("degenerate_lah_bell", 12))
    gf_catalog.cache_clear()
    assert sorted(map(_name, composed & direct - EQ48_SHARED)) == []


# What draining a solved row's stream may run in lahbell.series: the
# dispatcher, the row's builder and the solver.  No series is built.
STREAM_CODE = _with_nested(series._gf_terms, series._first_order, series._binomial_rows, series._has_poly)


@pytest.mark.parametrize("name", SOLVED_ROWS)
def test_solved_row_stream_reaches_only_its_solver(name):
    seen = entered(lambda: list(series._gf_terms(name, 12)))
    outside = sorted(
        f"{module}.{_name(code)}"
        for module, code in seen
        if str(module).startswith("lahbell.") and module not in ("lahbell.series", "lahbell.exact")
    )
    assert outside == []
    streamed = {code for module, code in seen if module == "lahbell.series"}
    build = series._GF_BUILDERS[name][1].__code__
    assert sorted(map(_name, streamed - STREAM_CODE - {build})) == []
    assert series._first_order.__code__ in streamed


# The family side of the gf rows: every polynomial family, and the Lah-Bell
# numbers that lemma1 holds the lah_bell row against.
FAMILY_BUILDS = {
    **{name: partial(poly_family, name, 8) for name in FAMILIES},
    "lah_bell_number": partial(triangles.lah_bell_number, 9),
}


def _empty_triangle_memos(monkeypatch):
    for memo in ("_LAH", "_S1", "_S2"):
        monkeypatch.setattr(triangles, memo, triangles.Triangle(getattr(triangles, memo).kind))


@pytest.mark.parametrize("name", FAMILY_BUILDS)
def test_family_reaches_no_series_code(name, monkeypatch):
    _empty_triangle_memos(monkeypatch)
    seen = reached(FAMILY_BUILDS[name])
    shared = sorted(f"{module}.{fn}" for module, fn in seen if module == "lahbell.series")
    assert shared == []
    # Every family but laguerre, whose weights are binomials, reads a triangle.
    assert (("lahbell.triangles", "_next_row") in seen) == (name != "laguerre")


# What the two sides of an oracle row may share: the argument check that the
# count walks and the triangle rows both make on n.
ORACLE_SHARED = {("lahbell.exact", "_index")}


@pytest.mark.parametrize("oracle", identities._ORACLES.values(), ids=lambda oracle: oracle.id)
def test_oracle_count_side_shares_no_triangle_code(oracle, monkeypatch):
    sides = inspect.getclosurevars(oracle.check).nonlocals
    count, entry, cap = sides["count"], sides["entry"], oracle.default_max

    def side(build, function):
        # Each side is called alone, so every count walk runs here.  The
        # side's own entry point (a lambda in identities) is not its reach.
        monkeypatch.setattr(enumeration, "_WALKS", {})
        _empty_triangle_memos(monkeypatch)
        return {
            (module, _name(code))
            for module, code in entered(build)
            if str(module).startswith("lahbell.") and code is not function.__code__
        }

    counted = side(lambda: [count(n) for n in range(cap + 1)], count)
    tabled = side(lambda: [entry(n, k) for n in range(cap + 1) for k in range(n + 1)], entry)
    other_side = {"lahbell.triangles", "lahbell.families", "lahbell.series", "lahbell.identities"}
    assert sorted(f"{module}.{fn}" for module, fn in counted if module in other_side) == []
    enumerated = sorted(f"{module}.{fn}" for module, fn in tabled if module == "lahbell.enumeration")
    assert enumerated == []
    assert sorted(f"{module}.{fn}" for module, fn in counted & tabled - ORACLE_SHARED) == []
    assert ("lahbell.enumeration", "_count_walk") in counted
    assert ("lahbell.triangles", "_next_row") in tabled
