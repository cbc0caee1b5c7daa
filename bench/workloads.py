"""Seeded request decks for the benchmark workloads.

A workload is a deck of slots, and one round draws every slot once, in a
seeded order.  A slot with ``count`` c yields c requests per round whose
sizes sit at the midpoints of c equal parts of its range.  The size of a
request drives its cost steeply (a degenerate ``gf`` at order 20 costs five
times order 14), so sizes drawn at random would make the cost mix of a run,
and with it every latency percentile, depend on the seed.  The seed picks
the order of the requests, small moves of the table and sequence sizes and
of the Dobinski x, the Dobinski eps, and which identity ids go together.

A request is the argv of one ``lahbell`` invocation, nothing else: the
program sees only the generated arguments.  The ranges are also the
universe the recorded outputs cover (see ``record_expected.py``), so
widening a range means recording again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CATALOG_IDS = (
    "eq3", "eq4", "eq8", "eq9", "eq11-eq16", "eq17", "eq13", "eq14", "lemma1",
    "thm2", "thm3", "lemma4", "thm5", "thm6", "thm7", "thm8", "eq30", "thm9",
    "thm10", "eq37", "lemma11", "thm12", "eq44", "eq45-catalog", "eq47",
    "eq48-corrected", "eq49", "laguerre-conv",
)


def midpoints(count: int) -> list[float]:
    """The midpoints of `count` equal parts of [0, 1)."""
    return [(i + 0.5) / count for i in range(count)]


def pick(bounds: tuple[int, int], u: float, rng: random.Random, jitter: int = 0) -> int:
    """The integer at quantile u of [lo, hi], moved by up to `jitter` either way."""
    lo, hi = bounds
    return min(hi, max(lo, lo + int(u * (hi - lo + 1)) + rng.randint(-jitter, jitter)))


@dataclass(frozen=True)
class Gf:
    name: str
    orders: tuple[int, int]
    count: int = 1

    def requests(self, rng: random.Random) -> list[list[str]]:
        # No jitter: one order more costs up to 30% more.
        return [["gf", self.name, "--order", str(pick(self.orders, u, rng))] for u in midpoints(self.count)]


@dataclass(frozen=True)
class Table:
    command = "table"
    kind: str
    sizes: tuple[int, int]
    count: int = 1

    def requests(self, rng: random.Random) -> list[list[str]]:
        return [[self.command, self.kind, str(pick(self.sizes, u, rng, 8))] for u in midpoints(self.count)]


@dataclass(frozen=True)
class Seq(Table):
    command = "seq"


@dataclass(frozen=True)
class Dobinski:
    family: str
    n: int
    half_xs: tuple[int, int]  # x = h/2, h spread over this range
    eps_exponents: tuple[int, int]  # eps = 1e-e
    count: int = 1

    def requests(self, rng: random.Random) -> list[list[str]]:
        out = []
        for u in midpoints(self.count):
            half_x = pick(self.half_xs, u, rng, 4)
            out.append([
                "dobinski",
                "--family", self.family,
                "--n", str(self.n),
                "--x", str(half_x // 2) if half_x % 2 == 0 else f"{half_x}/2",
                "--eps", f"1e-{rng.randint(*self.eps_exponents)}",
            ])
        return out


@dataclass(frozen=True)
class Verify:
    """`count` requests of `size` ids each, cut in turn from the catalog in a
    seeded order, so no id repeats within the slot; size 0 is `verify all`."""

    size: int
    max_ns: tuple[int, int]
    oracle: bool = False
    count: int = 1

    def requests(self, rng: random.Random) -> list[list[str]]:
        ids = list(CATALOG_IDS)
        rng.shuffle(ids)
        out = []
        for i, u in enumerate(midpoints(self.count)):
            part = ids[i * self.size:(i + 1) * self.size] if self.size else ["all"]
            argv = ["verify", *part, "--max-n", str(pick(self.max_ns, u, rng))]
            out.append(argv + ["--oracle"] if self.oracle else argv)
        return out


# Why each workload exists is recorded in BENCHMARK.json; the comments say
# which layer each slot is there for.
WORKLOADS: dict[str, tuple] = {
    # series/exact only: MultiPoly products, Fraction sums, compose, exp/log.
    "gf-symbolic": (
        Gf("degenerate_bell", (14, 20), 3),  # Horner compose, the slowest series path
        Gf("degenerate_lah_bell", (14, 20), 3),
        Gf("bivariate_bell", (20, 30), 2),  # symbolic pow = exp(x log1p)
        Gf("bivariate_lah_bell", (20, 32), 3),
        Gf("laguerre_weighted", (40, 40)),  # the largest peak RSS of the deck
        Gf("laguerre_weighted", (28, 39), 2),
        Gf("lah_bell_poly", (16, 40), 2),  # exp of a scaled series
        Gf("bell_poly", (16, 40), 2),
        Gf("lah_bell", (20, 60)),  # rational coefficients only
        Gf("bell", (20, 60)),
    ),
    # triangles, dobinski and cli rendering; no MultiPoly or series.
    "numeric-bignum": (
        Table("lah", (600, 600)),  # 282 MB peak, rendering-bound
        Table("lah", (150, 450)),
        Table("s1", (150, 450)),
        Table("s2", (150, 450)),
        Seq("lah_bell", (1000, 1000)),  # O(n^2) memo for an O(n) answer
        Seq("lah_bell", (300, 1000)),
        Seq("bell", (300, 1000)),
        Dobinski("lah_bell", 3, (80, 1200), (20, 40), 2),  # exact e^x partial sums
        Dobinski("bell", 4, (80, 1200), (20, 40), 2),
        Dobinski("lah_bell", 2, (2, 40), (100, 200)),
        # Known defect kept visible: the 4300-digit int-to-str limit.
        Dobinski("lah_bell", 1, (2, 6), (4301, 4400)),
    ),
    # identities, families and enumeration, on many small operands in one
    # warm process (shared triangle memo and gf_catalog cache).
    "verify-suite": (
        Verify(1, (8, 30), count=len(CATALOG_IDS)),  # every id alone: per-call cost
        Verify(4, (8, 30), count=2),  # seeded id subsets
        Verify(0, (8, 30)),
        Verify(1, (10, 30), oracle=True, count=5),  # brute-force enumeration
    ),
}


# Percentile reported as latency_tail_s: the highest with at least ten
# requests beyond it at the request count a run reaches on the seed code
# (gf-symbolic 40, numeric-bignum 39, verify-suite 72).  Each falls inside
# or between groups of requests of similar cost, where it does not jump
# with noise: verify-suite's twelve `--oracle` and `verify all` requests lie
# beyond p85, numeric-bignum's p74 lies among its four requests of 0.6-0.8 s
# per round, below `table lah 600`.  The percentile stays fixed so
# that a faster program, which fits more requests into a run, is measured at
# the same percentile.
TAIL_PERCENTILE = {"gf-symbolic": 75, "numeric-bignum": 74, "verify-suite": 85}


def rounds(workload: str, seed: int):
    """Endless stream of rounds; the same seed gives the same requests."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        requests = [argv for slot in WORKLOADS[workload] for argv in slot.requests(rng)]
        rng.shuffle(requests)
        yield requests
