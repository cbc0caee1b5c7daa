"""Brute-force enumeration oracles: counts, canonical order, duplicate freedom."""

import pytest

from lahbell.enumeration import (
    ENUMERATION_BOUNDS,
    count_ordered_partitions,
    count_permutations_by_cycles,
    count_set_partitions,
    cycle_count,
    iter_ordered_partitions,
    iter_set_partitions,
)
from lahbell.triangles import (
    bell_number,
    lah,
    lah_bell_number,
    stirling1_signed,
    stirling2,
)


def test_empty_ground_set_conventions():
    assert list(iter_set_partitions(0)) == [()]
    assert list(iter_ordered_partitions(0)) == [()]
    assert count_set_partitions(0) == {0: 1}
    assert count_ordered_partitions(0) == {0: 1}
    assert count_permutations_by_cycles(0) == {0: 1}


def test_two_element_ordered_partitions():
    got = set(iter_ordered_partitions(2))
    assert got == {((1,), (2,)), ((1, 2),), ((2, 1),)}


def test_three_element_set_partition_count():
    parts = list(iter_set_partitions(3))
    assert len(parts) == 5
    assert len(set(parts)) == 5


def test_counts_match_triangles():
    for n in range(8):
        assert count_set_partitions(n) == {
            k: stirling2(n, k) for k in range(n + 1) if stirling2(n, k)
        }
        assert count_ordered_partitions(n) == {
            k: lah(n, k) for k in range(n + 1) if lah(n, k)
        }
    for n in range(7):
        assert count_permutations_by_cycles(n) == {
            k: abs(stirling1_signed(n, k))
            for k in range(n + 1)
            if stirling1_signed(n, k)
        }


def test_totals_match_sequences():
    for n in range(8):
        assert len(list(iter_set_partitions(n))) == bell_number(n)
        assert len(list(iter_ordered_partitions(n))) == lah_bell_number(n)


def test_enumerations_are_duplicate_free():
    ordered = list(iter_ordered_partitions(5))
    assert len(ordered) == len(set(ordered)) == lah_bell_number(5)
    unordered = list(iter_set_partitions(6))
    assert len(unordered) == len(set(unordered)) == bell_number(6)


def test_blocks_are_canonically_ordered():
    for partition in iter_ordered_partitions(5):
        leads = [min(block) for block in partition]
        assert leads == sorted(leads)
        assert all(block for block in partition)
    for partition in iter_set_partitions(5):
        leads = [block[0] for block in partition]
        assert leads == sorted(leads)
        assert all(list(block) == sorted(block) for block in partition)


def test_set_partitions_are_the_ascending_ordered_partitions():
    # Both kinds come from one walk: a set block only appends, so the set
    # partitions are the ordered partitions whose blocks are all ascending,
    # in the same order.
    for n in range(9):
        ascending = [
            partition
            for partition in iter_ordered_partitions(n)
            if all(list(block) == sorted(block) for block in partition)
        ]
        assert list(iter_set_partitions(n)) == ascending


def test_cycle_count():
    assert cycle_count((0, 1, 2)) == 3
    assert cycle_count((1, 2, 0)) == 1
    assert cycle_count((1, 0, 3, 2)) == 2
    assert cycle_count(()) == 0


def test_bounds_are_enforced():
    assert ENUMERATION_BOUNDS == {
        "ordered_partitions": 10,
        "set_partitions": 12,
        "permutation_cycles": 9,
    }
    with pytest.raises(ValueError):
        next(iter_ordered_partitions(11))
    with pytest.raises(ValueError):
        next(iter_set_partitions(13))
    with pytest.raises(ValueError):
        count_permutations_by_cycles(10)
    with pytest.raises(ValueError):
        next(iter_set_partitions(-1))
