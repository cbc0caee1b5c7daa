"""Number triangles: recurrences vs closed forms, inversions, derived sequences."""

import concurrent.futures
import random
import sys
import time
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction

import pytest

from lahbell import triangles
from lahbell.triangles import (
    _KEPT,
    TRIANGLE_KINDS,
    Triangle,
    bell_number,
    iter_rows,
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

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
LAH_BELL = [1, 1, 3, 13, 73, 501, 4051, 37633, 394353]


def test_lah_rows():
    assert lah(0, 0) == 1
    assert [lah(4, k) for k in range(5)] == [0, 24, 36, 12, 1]
    assert [lah(5, k) for k in range(6)] == [0, 120, 240, 120, 20, 1]
    assert lah(3, 0) == 0
    assert lah(2, 5) == 0


def test_stirling2_rows():
    assert [stirling2(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    assert stirling2(5, 3) == 25
    assert stirling2(0, 0) == 1
    assert stirling2(3, 0) == 0


def test_stirling1_rows():
    assert [stirling1_signed(4, k) for k in range(5)] == [0, -6, 11, -6, 1]
    assert stirling1_signed(3, 1) == 2
    assert stirling1_signed(5, 2) == -50


def test_negative_indices_rejected():
    with pytest.raises(ValueError):
        lah(-1, 0)
    with pytest.raises(ValueError):
        stirling2(2, -1)
    with pytest.raises(ValueError):
        Triangle("lah").row(-1)


def test_value_is_zero_above_the_diagonal_and_names_a_bad_n_first():
    assert lah(3, 5) == stirling2(0, 7) == stirling1_signed(4, 9) == 0
    with pytest.raises(ValueError, match="got -1$"):
        lah(-1, "x")
    with pytest.raises(ValueError, match="got 'x'$"):
        stirling2("x", -1)
    with pytest.raises(ValueError, match="got -2$"):
        lah(5, -2)


def test_unknown_triangle_kind_rejected():
    with pytest.raises(ValueError):
        Triangle("eulerian")


@pytest.mark.parametrize("n", range(len(BELL)))
def test_bell_sequence(n):
    assert bell_number(n) == BELL[n]


@pytest.mark.parametrize("n", range(len(LAH_BELL)))
def test_lah_bell_sequence(n):
    assert lah_bell_number(n) == LAH_BELL[n]


def test_triangle_inversion():
    # sum_l (-1)^(l-k) L(n,l) L(l,k) collapses to the Kronecker delta
    for n in range(21):
        for k in range(n + 1):
            total = sum(
                (-1) ** (l - k) * lah(n, l) * lah(l, k) for l in range(k, n + 1)
            )
            assert total == (1 if n == k else 0)


def test_stirling_orthogonality():
    for n in range(21):
        for k in range(n + 1):
            total = sum(
                stirling2(n, l) * stirling1_signed(l, k) for l in range(k, n + 1)
            )
            assert total == (1 if n == k else 0)


def test_closed_forms_agree_with_recurrence():
    for n in range(1, 31):
        for k in range(1, n + 1):
            expected = lah(n, k)
            assert lah_product_form(n, k) == expected
            assert lah_binomial_form(n, k) == expected
            ratio = lah_ratio_form(n, k)
            assert ratio.denominator == 1 and ratio == expected


def test_lah_ratio_form_is_exact_fraction():
    assert lah_ratio_form(4, 2) == Fraction(36)


def test_adjacent_column_recurrence():
    # L(n, k+1) k (k+1) = (n-k) L(n, k)
    for n in range(1, 31):
        for k in range(1, n):
            assert lah(n, k + 1) * k * (k + 1) == (n - k) * lah(n, k)


def test_cross_triangle_conversions():
    for n in range(13):
        for k in range(n + 1):
            assert lah_via_stirling(n, k) == lah(n, k)
            assert stirling2_via_lah(n, k) == stirling2(n, k)
    assert stirling2_via_lah(2, 1) == 1


def test_row_sums_monotone():
    for n in range(1, 25):
        assert bell_number(n + 1) > bell_number(n)
        assert lah_bell_number(n + 1) > lah_bell_number(n)


def test_concurrent_reads_are_consistent():
    tri = Triangle("lah")
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        rows = list(pool.map(tri.row, [60] * 16))
    assert all(r == rows[0] for r in rows)
    assert rows[0][1] == lah(60, 1)


def test_concurrent_extension_stores_each_row_once():
    # Switch threads as often as the interpreter allows, so that several
    # threads build the same rows of a fresh triangle at once.
    expected = list(iter_rows("lah", 40))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            tri = Triangle("lah")
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(tri.row, [40] * 8, timeout=60))
            assert [tri.row(n) for n in range(41)] == expected
    finally:
        sys.setswitchinterval(interval)


def test_an_ascending_walk_keeps_only_the_first_rows():
    tri = Triangle("lah")
    expected = iter_rows("lah", 300)
    assert all(tri.row(n) == row for n, row in enumerate(expected))
    assert len(tri._rows) == _KEPT
    assert tri._tail[0] == 300


# A read behind the tail fills the memo up to its row, so descending and
# column-order reads build each row at most twice.  One walk from the last
# kept row per read took 1.5 s against 0.04 s descending from row 400, and
# 5.3 s against 0.06 s by column to row 400.
@pytest.mark.parametrize("order", ["descending", "by column"])
def test_reads_in_any_order_past_the_kept_rows_build_each_row_at_most_twice(order, monkeypatch):
    nmax = 400
    expected = list(iter_rows("lah", nmax))
    steps = []
    step = triangles._next_row

    def counted(prev, factors):
        steps.append(len(prev))
        return step(prev, factors)

    monkeypatch.setattr(triangles, "_next_row", counted)
    tri = Triangle("lah")
    start = time.perf_counter()
    if order == "descending":
        assert [tri.row(n) for n in range(nmax, -1, -1)] == expected[::-1]
    else:
        assert all(tri.value(n, k) == expected[n][k] for k in range(nmax + 1) for n in range(k, nmax + 1))
    assert time.perf_counter() - start < 1
    assert len(steps) <= 2 * nmax
    assert len(tri._rows) == nmax


def test_concurrent_reads_past_the_kept_rows_are_consistent():
    # Shuffled reads on both sides of the tail, with threads switched as
    # often as the interpreter allows.
    rows = range(_KEPT - 4, _KEPT + 100)
    expected = list(iter_rows("lah", rows[-1]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(20):
            reads = list(rows) * 2
            random.Random(seed).shuffle(reads)
            tri = Triangle("lah")
            with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
                got = list(pool.map(tri.row, reads, timeout=60))
            assert got == [expected[n] for n in reads]
            assert [tri.value(n, n // 2) for n in rows] == [expected[n][n // 2] for n in rows]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", TRIANGLE_KINDS)
def test_streamed_rows_equal_the_memo(kind):
    tri = Triangle(kind)
    memo = [tri.row(n) for n in range(301)]
    assert list(iter_rows(kind, 300)) == memo
    # Integer multiples of Decimal(1) stay exact when nothing may round.
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
    with localcontext(exact):
        rows = list(iter_rows(kind, 300, Decimal(1)))
    assert [[str(v) for v in row] for row in rows] == [[str(v) for v in row] for row in memo]
    assert all(isinstance(v, Decimal) for row in rows for v in row)


def test_iter_rows_refuses_at_the_call():
    # A caller may write the head of its answer before it asks for row 0.
    for kind, nmax in (("eulerian", 3), ("lah", -1), ("lah", True)):
        with pytest.raises(ValueError):
            iter_rows(kind, nmax)


def test_iter_rows_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(iter_rows("eulerian", 3))
    with pytest.raises(ValueError):
        list(iter_rows("lah", -1))
    assert list(iter_rows("stirling2", 0)) == [(1,)]
