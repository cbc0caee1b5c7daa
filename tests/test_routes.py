"""Every gf row reaches no family-side code, and every family no series code.

The identities hold each gf row against a family built from the triangles,
the family sums or the enumerations, so the two routes must not share that
code.  Each side is built alone, a gf row from an empty gf catalog and a
family from empty triangle memos, under ``sys.setprofile``, and every Python
function it enters is collected by module and qualified name.
"""

import sys
from functools import partial

import pytest

from lahbell import triangles
from lahbell.families import FAMILIES, poly_family
from lahbell.series import GF_NAMES, gf_catalog

# The rows whose exponent is rational in t, each one first-order solve.
SOLVED_ROWS = ("lah_bell", "lah_bell_poly", "bivariate_lah_bell", "laguerre_weighted")

# The modules of the other side: the families, the triangles they read, the
# checks themselves, the enumerations and the Dobinski sums.
FAMILY_SIDE = {
    "lahbell.families",
    "lahbell.triangles",
    "lahbell.identities",
    "lahbell.enumeration",
    "lahbell.dobinski",
}


def reached(build):
    """The (module, qualified name) of every Python function build() enters."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((frame.f_globals.get("__name__"), getattr(code, "co_qualname", code.co_name)))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        build()
    finally:
        sys.setprofile(previous)
    return seen


@pytest.mark.parametrize("name", GF_NAMES)
def test_gf_row_reaches_no_family_side_code(name):
    gf_catalog.cache_clear()
    seen = reached(lambda: gf_catalog(name, 12))
    shared = sorted(f"{module}.{function}" for module, function in seen if module in FAMILY_SIDE)
    assert shared == []
    if name in SOLVED_ROWS:
        assert ("lahbell.series", "_first_order") in seen


# The family side of the gf rows: every polynomial family, and the Lah-Bell
# numbers that lemma1 holds the lah_bell row against.
FAMILY_BUILDS = {
    **{name: partial(poly_family, name, 8) for name in FAMILIES},
    "lah_bell_number": partial(triangles.lah_bell_number, 9),
}


@pytest.mark.parametrize("name", FAMILY_BUILDS)
def test_family_reaches_no_series_code(name, monkeypatch):
    for memo in ("_LAH", "_S1", "_S2"):
        monkeypatch.setattr(triangles, memo, triangles.Triangle(getattr(triangles, memo).kind))
    seen = reached(FAMILY_BUILDS[name])
    shared = sorted(f"{module}.{fn}" for module, fn in seen if module == "lahbell.series")
    assert shared == []
    # Every family but laguerre, whose weights are binomials, reads a triangle.
    assert (("lahbell.triangles", "_next_row") in seen) == (name != "laguerre")
