"""Exact combinatorial triangles, polynomial families, and verified identities.

The package computes partition-counting number triangles and their polynomial
extensions in exact rational arithmetic, realizes each family a second time
through a truncated formal-power-series engine, counts the underlying
structures by brute force for small sizes, and evaluates the infinite-series
representations numerically with certified error bounds.  The identity
catalog ties all routes together and is exposed on the command line as
`lahbell verify`.
"""

from .dobinski import (
    DOBINSKI_FAMILIES,
    CertifiedDecimal,
    PrecisionNotReached,
    bell_dobinski,
    lah_bell_dobinski,
)
from .enumeration import (
    ENUMERATION_BOUNDS,
    count_ordered_partitions,
    count_permutations_by_cycles,
    count_set_partitions,
    iter_ordered_partitions,
    iter_set_partitions,
)
from .exact import (
    INDETERMINATES,
    MultiPoly,
    Rational,
    falling_factorial,
    generalized_falling,
    rising_factorial,
)
from .families import (
    FAMILIES,
    bell_poly,
    bivariate_bell_poly,
    bivariate_lah_bell_poly,
    degenerate_bell_poly,
    degenerate_lah_bell_poly,
    lah_bell_derivative,
    lah_bell_poly,
    lah_bell_recurrence_step,
    laguerre_poly,
    poly_family,
)
from .identities import CATALOG_IDS, ORACLE_IDS, IdentityRecord, oracle_records, run_suite
from .series import (
    GF_NAMES,
    TruncatedSeries,
    degenerate_exponential,
    exp_t_minus_one,
    geometric_minus_one,
    gf_catalog,
    identity_t,
    neg_log_one_minus_t,
    ser_one,
)
from .triangles import (
    TRIANGLE_KINDS,
    Triangle,
    bell_number,
    iter_rows,
    lah,
    lah_bell_number,
    lah_via_stirling,
    stirling1_signed,
    stirling2,
    stirling2_via_lah,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exact arithmetic
    "Rational",
    "MultiPoly",
    "INDETERMINATES",
    "falling_factorial",
    "rising_factorial",
    "generalized_falling",
    # triangles and sequences
    "Triangle",
    "TRIANGLE_KINDS",
    "iter_rows",
    "lah",
    "stirling1_signed",
    "stirling2",
    "bell_number",
    "lah_bell_number",
    "lah_via_stirling",
    "stirling2_via_lah",
    # series engine
    "TruncatedSeries",
    "GF_NAMES",
    "gf_catalog",
    "identity_t",
    "ser_one",
    "geometric_minus_one",
    "exp_t_minus_one",
    "neg_log_one_minus_t",
    "degenerate_exponential",
    # polynomial families
    "FAMILIES",
    "poly_family",
    "bell_poly",
    "lah_bell_poly",
    "bivariate_bell_poly",
    "bivariate_lah_bell_poly",
    "degenerate_bell_poly",
    "degenerate_lah_bell_poly",
    "laguerre_poly",
    "lah_bell_recurrence_step",
    "lah_bell_derivative",
    # enumeration oracles
    "ENUMERATION_BOUNDS",
    "iter_set_partitions",
    "iter_ordered_partitions",
    "count_set_partitions",
    "count_ordered_partitions",
    "count_permutations_by_cycles",
    # certified numerics
    "CertifiedDecimal",
    "PrecisionNotReached",
    "DOBINSKI_FAMILIES",
    "lah_bell_dobinski",
    "bell_dobinski",
    # identity suite
    "IdentityRecord",
    "CATALOG_IDS",
    "ORACLE_IDS",
    "run_suite",
    "oracle_records",
]
