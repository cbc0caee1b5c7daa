"""Brute-force enumeration of the counted structures, independent of all formulas.

These generators build every structure explicitly, one at a time, so the
counts they produce depend on nothing but the combinatorial definitions.
They are the ground truth the triangle recurrences are checked against.

Canonical form: a partition is a tuple of blocks listed in increasing order
of least element, so each structure is generated exactly once.  Blocks of a
set partition are sorted ascending; blocks of an ordered partition are
sequences whose internal order matters.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from typing import Iterable, Iterator

__all__ = [
    "ENUMERATION_BOUNDS",
    "iter_set_partitions",
    "iter_ordered_partitions",
    "count_set_partitions",
    "count_ordered_partitions",
    "count_permutations_by_cycles",
    "cycle_count",
]

# Per-enumerator caps keep a full run in the seconds range; structure counts
# grow faster than factorially beyond them.
ENUMERATION_BOUNDS = {
    "ordered_partitions": 10,
    "set_partitions": 12,
    "permutation_cycles": 9,
}

Partition = tuple[tuple[int, ...], ...]


def _check_bound(n: int, which: str) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"element count must be a nonnegative integer, got {n!r}")
    bound = ENUMERATION_BOUNDS[which]
    if n > bound:
        raise ValueError(f"{which} enumeration is capped at n = {bound}, got {n}")


def _partitions(n: int, which: str, ordered: bool) -> Iterator[Partition]:
    """All partitions of {1..n} into nonempty blocks, set or internally ordered.

    Element m joins an existing block or opens a new one after all blocks
    holding smaller elements, so blocks stay sorted by least element.  A set
    block only appends m, so it stays ascending; an ordered block takes m at
    any of its len(block)+1 positions.  Removing the largest element inverts
    the construction uniquely, so no structure repeats.
    """
    _check_bound(n, which)

    def extend(blocks: list[list[int]], label: int) -> Iterator[Partition]:
        if label > n:
            yield tuple(map(tuple, blocks))
            return
        for b in blocks:
            for pos in range(0 if ordered else len(b), len(b) + 1):
                b.insert(pos, label)
                yield from extend(blocks, label + 1)
                b.pop(pos)
        blocks.append([label])
        yield from extend(blocks, label + 1)
        blocks.pop()

    yield from extend([], 1)


def iter_set_partitions(n: int) -> Iterator[Partition]:
    """All partitions of {1..n} into nonempty unordered blocks, ascending inside."""
    return _partitions(n, "set_partitions", ordered=False)


def iter_ordered_partitions(n: int) -> Iterator[Partition]:
    """All partitions of {1..n} into nonempty internally ordered blocks."""
    return _partitions(n, "ordered_partitions", ordered=True)


def _tally(ks: Iterable[int]) -> dict[int, int]:
    """Counts by key k, in increasing k."""
    return dict(sorted(Counter(ks).items()))


def count_set_partitions(n: int) -> dict[int, int]:
    """Counts by block count; entry k is the number of k-block partitions."""
    return _tally(map(len, iter_set_partitions(n)))


def count_ordered_partitions(n: int) -> dict[int, int]:
    """Counts by block count over ordered-block partitions."""
    return _tally(map(len, iter_ordered_partitions(n)))


def cycle_count(perm: tuple[int, ...]) -> int:
    """Number of cycles of a permutation given in one-line notation on 0..n-1."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def count_permutations_by_cycles(n: int) -> dict[int, int]:
    """Counts of permutations of n elements by number of cycles."""
    _check_bound(n, "permutation_cycles")
    return _tally(map(cycle_count, permutations(range(n))))
