"""Number triangles (Lah, Stirling first/second kind) and their row-sum sequences.

Triangles are built one row at a time from the previous row's recurrence.
One row step serves two consumers: the tables, whose entries are plain
Python integers, and `iter_rows`, which streams rows in any number type and
keeps only the last one.  A table keeps its first rows, the ones the
identity checks read, for the life of the process; past them it keeps only
its newest row, since a walk up the rows (`seq`, a single `poly` row) reads
no other, and rows 0..n hold about n/3 times the bits of row n.
The closed-form evaluators are kept alongside as independent cross-check
routes and are never used to fill the tables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, factorial
from typing import Callable, Iterable, Iterator

from . import _EXPORTS
from .exact import _index, _named

__all__ = _EXPORTS["triangles"]

# Row m's factors c_1..c_m in T(m, k) = T(m-1, k-1) + c_k * T(m-1, k).
_ROW_FACTORS: dict[str, Callable[[int], Iterable[int]]] = {
    "lah": lambda m: range(m, 2 * m),  # c_k = m - 1 + k
    "stirling1_signed": lambda m: repeat(1 - m),  # c_k = 1 - m
    "stirling2": lambda m: range(1, m + 1),  # c_k = k
}

TRIANGLE_KINDS = tuple(_ROW_FACTORS)

# Rows 0.._KEPT-1 of a Triangle are memoized: past every row the identity
# checks read (no catalog range passes n = 30), and about 0.1 MB for Lah.
_KEPT = 64


def _next_row(prev: tuple, factors: Callable[[int], Iterable[int]]) -> tuple:
    """Row m = len(prev) of a triangle from row m - 1, in the number type of
    prev; factors is the triangle's row of _ROW_FACTORS."""
    m = len(prev)
    zero = prev[0] * 0
    return (zero, *[left + c * mid for left, mid, c in zip(prev, (*prev[1:], zero), factors(m))])


def iter_rows(kind: str, nmax: int, one=1) -> Iterator[tuple]:
    """Rows 0..nmax of a triangle, each made from the one before and not kept.

    Every entry is a sum of integer multiples of ``one``, so ``Decimal(1)``
    under a context that cannot round gives the exact rows in base 10.
    A bad kind or nmax is refused here, before the first row is asked for.
    """
    steps = repeat(_named(_ROW_FACTORS, kind, "triangle kind"), _index(nmax, "row index"))
    return accumulate(steps, _next_row, initial=(one,))


class Triangle:
    """Lower-triangular table of integers, grown row by row.

    Row 0 is (1,).  Rows below _KEPT are memoized.  Past them the table
    holds one (index, row) tail and steps it forward to the row asked for;
    a read behind the tail fills the memo up to its row instead, so reads in
    any order cost at most about twice one walk up to the furthest row.
    That memo is then held for as long as the table: lah_bell_number(1500)
    and then lah_bell_number(1400) leave 1401 Lah rows and a 686 MB peak,
    against 18 MB after the first call.  seq, poly and the identity catalog
    never read behind the tail.
    Reads and extension take no lock: each new memo row is stored by one
    slice assignment at its own index, so two threads that build the same
    row store equal rows and never a duplicate, and the tail is replaced
    whole, so every tail a thread reads is a true row.
    """

    def __init__(self, kind: str):
        self._factors = _named(_ROW_FACTORS, kind, "triangle kind")
        self.kind = kind
        self._rows: list[tuple[int, ...]] = [(1,)]
        self._tail: tuple[int, tuple[int, ...]] = (0, (1,))

    def _extend_to(self, n: int) -> None:
        rows = self._rows
        while len(rows) <= n:
            m = len(rows)
            rows[m:m + 1] = [_next_row(rows[m - 1], self._factors)]

    def _row(self, n: int) -> tuple[int, ...]:
        """Row n, from the memo, or by stepping the tail forward from it or
        from the last memo row, whichever is further."""
        rows = self._rows
        i, row = self._tail
        if n < max(i, _KEPT):
            self._extend_to(n)
            return rows[n]
        self._extend_to(_KEPT - 1)
        m = len(rows) - 1  # another thread may have filled the memo since
        if n <= m:
            return rows[n]
        if i < m:
            i, row = m, rows[m]
        while i < n:
            i, row = i + 1, _next_row(row, self._factors)
            self._tail = (i, row)
        return row

    def value(self, n: int, k: int) -> int:
        """T(n, k), and 0 above the diagonal.  The identity checks call this
        thousands of times per run, so both indices are tested in one
        expression, and _index runs only when that test fails."""
        if type(n) is type(k) is int and 0 <= k <= n:
            rows = self._rows
            if n < len(rows):
                return rows[n][k]
            return self._row(n)[k]
        # Past the diagonal is 0; anything else is a bad index, named by _index.
        _index(n, "triangle index")
        _index(k, "triangle index")
        return 0

    def row(self, n: int) -> tuple[int, ...]:
        return self._row(_index(n, "row index"))


_LAH = Triangle("lah")
_S1 = Triangle("stirling1_signed")
_S2 = Triangle("stirling2")


def lah(n: int, k: int) -> int:
    """Unsigned Lah number: partitions of an n-set into k nonempty ordered lists."""
    return _LAH.value(n, k)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into k blocks."""
    return _S2.value(n, k)


def stirling1_signed(n: int, k: int) -> int:
    """Signed Stirling number of the first kind, the coefficient of x^k in (x)_n.

    Its absolute value counts permutations of n elements with k cycles.
    """
    return _S1.value(n, k)


def bell_number(n: int) -> int:
    """Total number of set partitions of an n-set (row sum of stirling2)."""
    return sum(_S2.row(n))


def lah_bell_number(n: int) -> int:
    """Total number of partitions of an n-set into nonempty ordered lists."""
    return sum(_LAH.row(n))


def lah_via_stirling(n: int, k: int) -> int:
    """Lah number recovered through both Stirling kinds.

    Evaluates sum_{l=k..n} (-1)^(n-l) * S1(n,l) * S2(l,k); agrees with
    :func:`lah` on the whole domain.
    """
    return sum(
        (-1) ** (n - l) * stirling1_signed(n, l) * stirling2(l, k)
        for l in range(k, n + 1)
    )


def stirling2_via_lah(n: int, k: int) -> int:
    """Stirling-2 recovered through the Lah triangle.

    Evaluates sum_{l=k..n} (-1)^(n-l) * S2(n,l) * L(l,k); agrees with
    :func:`stirling2` on the whole domain.
    """
    return sum(
        (-1) ** (n - l) * stirling2(n, l) * lah(l, k)
        for l in range(k, n + 1)
    )


# -- closed forms, used only as cross-checks against the recurrence tables --

def lah_product_form(n: int, k: int) -> int:
    """C(n-1, k-1) * n!/k!   (defined here for 1 <= k <= n)."""
    return comb(n - 1, k - 1) * factorial(n) // factorial(k)


def lah_binomial_form(n: int, k: int) -> int:
    """C(n, k) * C(n-1, k-1) * (n-k)!"""
    return comb(n, k) * comb(n - 1, k - 1) * factorial(n - k)


def lah_ratio_form(n: int, k: int) -> Fraction:
    """(n!/k!)^2 * k / (n * (n-k)!), exact; integral on 1 <= k <= n."""
    num = Fraction(factorial(n), factorial(k)) ** 2 * k
    return num / (n * factorial(n - k))
