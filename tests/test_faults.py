"""One-line faults outside the triangle memos, each pinned to the checks it fails.

Each fault wraps one module-level name, the one its callers resolve when they
run, and the table pins the sorted ids of the records that fail under it in
`run_suite("all", 30) + oracle_records(30)`.  The caches that outlive a run
(the gf catalog and the kept enumeration walks) start empty for each faulty
run, and nothing that run builds is kept after it.

Two kernel-level faults fail no catalog row: both routes of every row agree
under them.  Each names the deterministic tests, none of them a golden
digest, that fail under it instead.
The module's run time is printed in the test summary (tests/conftest.py).
"""

from functools import partial

import pytest

import test_acceptance
import test_exact
import test_series
from lahbell import dobinski, enumeration, exact, families, identities, series
from lahbell.exact import MultiPoly
from lahbell.identities import oracle_records, run_suite
from lahbell.series import TruncatedSeries, gf_catalog

X = MultiPoly.var("x")


def recurrence_step_plus_one(patch):
    step = identities.lah_bell_recurrence_step
    patch.setattr(identities, "lah_bell_recurrence_step", lambda n, values: step(n, values) + 1)


def derivative_plus_x_at_7(patch):
    derivative = identities.lah_bell_derivative

    def faulty(n, values):
        return derivative(n, values) + (X if n == 7 else 0)

    patch.setattr(identities, "lah_bell_derivative", faulty)


def dobinski_tail_halved(patch):
    tail = dobinski._Cutoff.tail
    patch.setattr(dobinski._Cutoff, "tail", lambda cutoff: tail(cutoff) / 2)


def power_one_product_short_from_5(patch):
    power = exact._power

    def faulty(base, e):
        return power(base, e - 1 if e >= 5 else e)

    for module in (exact, series):
        patch.setattr(module, "_power", faulty)


def symbolic_step_negated(patch):
    prefixes = exact._falling_prefixes

    def faulty(p, n, step):
        return prefixes(p, n, -step if isinstance(step, MultiPoly) else step)

    for module in (exact, families):
        patch.setattr(module, "_falling_prefixes", faulty)


def divided_powers_top_zeroed(patch):
    divided = series._divided_powers

    def faulty(inner):
        for k, power in enumerate(divided(inner)):
            yield series._from_egf([*power._egf[:-1], 0]) if k else power

    for module in (series, identities):
        patch.setattr(module, "_divided_powers", faulty)


def series_product_drops_a1_b5(patch):
    multiply = TruncatedSeries.__mul__

    def faulty(a, b):
        product = multiply(a, b)
        if product is NotImplemented or product.order < 6:
            return product
        term = [0] * (product.order + 1)
        term[6] = 6 * a.egf_coefficient(1) * b.egf_coefficient(5)
        return product - series._from_egf(term)

    patch.setattr(TruncatedSeries, "__mul__", faulty)


def solver_reads_c_m_2_as_0_from_5(patch):
    """_first_order with C(m, 2) read as 0 from m = 5: its a-term at shift 2
    (and b-term at shift 3) drops out.  The solver is a generator, which
    reads its rows as it is drained, so the rows stay faulty for the run."""
    rows = series._binomial_rows

    def faulty_rows(width):
        for m, row in enumerate(rows(width)):
            yield [*row[:2], 0, *row[3:]] if m >= 5 else row

    patch.setattr(series, "_binomial_rows", faulty_rows)


def triangle_sum_drops_k_equal_n(patch):
    triangle_sum = families.triangle_sum

    def faulty(n, entry, bases, sign=1):
        return triangle_sum(n, lambda m, k: entry(m, k) if k < n else 0, bases, sign)

    for module in (families, identities):
        patch.setattr(module, "triangle_sum", faulty)


def rising_is_falling_past_6(patch):
    rising, falling = exact.rising_factorial, exact.falling_factorial

    def faulty(p, n):
        return (falling if n > 6 else rising)(p, n)

    for module in (exact, identities):
        patch.setattr(module, "rising_factorial", faulty)


def _skipping(patch, skip):
    """_extend without the places where skip(blocks, m, first) holds: it
    resumes past them, so each is made and undone unseen."""
    extend = enumeration._extend

    def faulty(blocks, m, first):
        for _ in extend(blocks, m, first):
            if not skip(blocks, m, first):
                yield

    patch.setattr(enumeration, "_extend", faulty)


def five_never_opens_a_block(patch):
    _skipping(patch, lambda blocks, m, first: m == 5 and blocks[-1] == [5])


def no_late_element_first_in_a_long_block(patch):
    def skip(blocks, m, first):
        return m >= 4 and first is not None and any(
            len(block) > 2 and block[first] == m for block in blocks
        )

    _skipping(patch, skip)


_FAULT_FAILURES = {
    recurrence_step_plus_one: ["thm9"],
    derivative_plus_x_at_7: ["thm10"],
    dobinski_tail_halved: ["thm3", "thm6"],
    power_one_product_short_from_5: ["eq3", "eq8", "thm6"],
    symbolic_step_negated: ["eq37", "eq44", "eq45-catalog", "lemma11"],
    divided_powers_top_zeroed: ["eq4", "eq45-catalog", "eq48-corrected", "eq9"],
    series_product_drops_a1_b5: ["eq4", "eq45-catalog", "eq48-corrected", "eq9"],
    solver_reads_c_m_2_as_0_from_5: [
        "eq37", "eq44", "eq48-corrected", "eq49", "lemma1", "lemma11", "lemma4",
    ],
    triangle_sum_drops_k_equal_n: [
        "eq13", "eq14", "eq3", "eq37", "eq44", "eq45-catalog", "eq47", "eq48-corrected", "eq49",
        "eq8", "laguerre-conv", "lemma11", "lemma4", "thm10", "thm12", "thm2", "thm5", "thm6",
        "thm7", "thm9",
    ],
    rising_is_falling_past_6: ["eq13", "eq14", "laguerre-conv"],
    five_never_opens_a_block: [
        "oracle-ordered-partitions", "oracle-permutation-cycles", "oracle-set-partitions",
    ],
    no_late_element_first_in_a_long_block: [
        "oracle-ordered-partitions", "oracle-permutation-cycles",
    ],
}


def fma_drops_alpha_degree_5(patch):
    fma = exact._fma

    def faulty(out, c, a, b):
        part: dict = {}
        fma(part, c, a, b)
        for key, coeff in part.items():
            if exact._unpack(key)[3] < 5:
                out[key] = out.get(key, 0) + coeff

    for module in (exact, series, families):
        patch.setattr(module, "_fma", faulty)


def first_order_c_zeroed_past_7(patch):
    first_order = series._first_order

    def faulty(g0, b=(), a=(), c=()):
        return first_order(g0, b, a, [ci if i < 8 else 0 for i, ci in enumerate(c)])

    patch.setattr(series, "_first_order", faulty)


def _criterion_6():
    test_acceptance.test_criterion_6_series_engine_round_trips(lambda number, label, body: body())


# Kernel-level faults: the catalog cannot see them, so each lists the
# non-golden tests that fail under it.
_KERNEL_FAULTS = {
    fma_drops_alpha_degree_5: [
        *(
            partial(test_exact.test_products_and_sums_match_plain_evaluation, seed)
            for seed in range(4)
        ),
        test_exact.test_series_product_matches_plain_evaluation,
    ],
    first_order_c_zeroed_past_7: [_criterion_6, test_series.test_log1p_inverts_exp_minus_one],
}


def _failing_ids(patch, fault):
    patch.setattr(enumeration, "_WALKS", {})
    gf_catalog.cache_clear()
    fault(patch)
    try:
        records = run_suite("all", 30) + oracle_records(30)
    finally:
        gf_catalog.cache_clear()
    return sorted(r.id for r in records if not r.passed())


@pytest.mark.parametrize("fault", list(_FAULT_FAILURES), ids=lambda fault: fault.__name__)
def test_fault_fails_its_checks(monkeypatch, fault):
    assert _failing_ids(monkeypatch, fault) == _FAULT_FAILURES[fault]


@pytest.mark.parametrize("fault", list(_KERNEL_FAULTS), ids=lambda fault: fault.__name__)
def test_kernel_fault_fails_its_tests(monkeypatch, fault):
    assert _failing_ids(monkeypatch, fault) == []
    for check in _KERNEL_FAULTS[fault]:
        with pytest.raises(AssertionError):
            check()
