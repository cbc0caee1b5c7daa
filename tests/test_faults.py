"""One-line faults outside the triangle memos, each pinned to the checks it fails.

Each fault wraps one module-level name, the one its callers resolve when they
run, and the table pins the sorted ids of the records that fail under it in
`run_suite("all", 30) + oracle_records(30)`.  The caches that outlive a run
(the gf catalog and the kept enumeration walks) start empty for each faulty
run, and nothing that run builds is kept after it.
The module's run time is printed in the test summary (tests/conftest.py).
"""

import pytest

from lahbell import dobinski, enumeration, exact, identities, series
from lahbell.exact import MultiPoly
from lahbell.identities import oracle_records, run_suite
from lahbell.series import gf_catalog

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


_FAULT_FAILURES = {
    recurrence_step_plus_one: ["thm9"],
    derivative_plus_x_at_7: ["thm10"],
    dobinski_tail_halved: ["thm3", "thm6"],
    power_one_product_short_from_5: ["eq3", "eq8", "thm6"],
}


@pytest.mark.parametrize("fault", list(_FAULT_FAILURES), ids=lambda fault: fault.__name__)
def test_fault_fails_its_checks(monkeypatch, fault):
    monkeypatch.setattr(enumeration, "_WALKS", {})
    gf_catalog.cache_clear()
    fault(monkeypatch)
    try:
        records = run_suite("all", 30) + oracle_records(30)
    finally:
        gf_catalog.cache_clear()
    assert sorted(r.id for r in records if not r.passed()) == _FAULT_FAILURES[fault]
