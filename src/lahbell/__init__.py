"""Exact combinatorial triangles, polynomial families, and verified identities.

The package computes partition-counting number triangles and their polynomial
extensions in exact rational arithmetic, realizes each family a second time
through a truncated formal-power-series engine, counts the underlying
structures by brute force for small sizes, and evaluates the infinite-series
representations numerically with certified error bounds.  The identity
catalog ties all routes together and is exposed on the command line as
`lahbell verify`.

Every public name is written once, in ``_EXPORTS`` under the module that
defines it, and each of those modules reads its ``__all__`` from its row.
``import lahbell`` loads none of those modules: the module
``__getattr__`` (PEP 562) imports a name's module the first time the name is
asked for, and answers each access from that module, so the package never
holds a copy of a name that could go stale: a name rebound on its module (a
test double, a tracer) is seen through the package too.

Six names are public by name only and stay out of ``import *``:
``exact.MAX_DEGREE``, the closed forms ``triangles.lah_product_form``,
``lah_binomial_form`` and ``lah_ratio_form``, ``families.triangle_sum`` and
``enumeration.cycle_count``.  ``lahbell.cli`` has no row: its ``__all__`` is
``["main"]``, and it imports what its commands use when it is loaded.

Every ``lahbell`` call is a fresh process and pays this package's start-up,
so the records (``CertifiedDecimal``, ``IdentityRecord`` and the catalog
rows) are ``typing.NamedTuple`` classes rather than dataclasses, whose
module imports ``inspect``, ``ast``, ``dis`` and ``tokenize`` and compiles
methods for each class, and ``json`` is imported only where a JSON answer is
written.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each defining module and the names it exports: the row is that module's __all__.
_EXPORTS = {
    "exact": (
        "Rational", "MultiPoly", "INDETERMINATES",
        "falling_factorial", "rising_factorial", "generalized_falling",
    ),
    "triangles": (
        "Triangle", "TRIANGLE_KINDS", "iter_rows", "lah", "stirling1_signed", "stirling2",
        "bell_number", "lah_bell_number", "lah_via_stirling", "stirling2_via_lah",
    ),
    "series": (
        "TruncatedSeries", "GF_NAMES", "gf_catalog", "identity_t", "ser_one",
        "geometric_minus_one", "exp_t_minus_one", "neg_log_one_minus_t", "degenerate_exponential",
    ),
    "families": (
        "FAMILIES", "poly_family", "bell_poly", "lah_bell_poly", "bivariate_bell_poly",
        "bivariate_lah_bell_poly", "degenerate_bell_poly", "degenerate_lah_bell_poly",
        "laguerre_poly", "lah_bell_recurrence_step", "lah_bell_derivative",
    ),
    "enumeration": (
        "ENUMERATION_BOUNDS", "iter_set_partitions", "iter_ordered_partitions",
        "count_set_partitions", "count_ordered_partitions", "count_permutations_by_cycles",
    ),
    "dobinski": (
        "CertifiedDecimal", "PrecisionNotReached", "DOBINSKI_FAMILIES",
        "lah_bell_dobinski", "bell_dobinski",
    ),
    "identities": ("IdentityRecord", "CATALOG_IDS", "ORACLE_IDS", "run_suite", "oracle_records"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*__all__, *globals()})
