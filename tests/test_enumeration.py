"""Brute-force enumeration oracles: counts, canonical order, duplicate freedom."""

import hashlib
import os
import threading
import warnings
from collections import Counter
from itertools import permutations
from math import factorial

import pytest

from lahbell import enumeration
from lahbell.enumeration import (
    ENUMERATION_BOUNDS,
    _FIRST,
    _count_walk,
    _prefixes,
    _walk,
    _walk_side_by_side,
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
    # Up to the `verify --oracle` default ranges.
    for n in range(11):
        assert count_set_partitions(n) == {
            k: stirling2(n, k) for k in range(n + 1) if stirling2(n, k)
        }
    for n in range(9):
        assert count_ordered_partitions(n) == {
            k: lah(n, k) for k in range(n + 1) if lah(n, k)
        }
    for n in range(10):
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


# sha256 of the repr of each value, recorded from the recursive generator walk
# before the in-place walk replaced it.  The partition lists pin content and
# order; the counts run to the `verify --oracle` default ranges.
GOLDEN_SHA256 = [
    (lambda: list(iter_ordered_partitions(8)),
     "cdfc3ff84cc68a6cd0d32d70c3740a0f1dafead28dcf5f1bdb5e0e98b959cd3c"),
    (lambda: list(iter_set_partitions(10)),
     "cb271f622a5aa333fe43d2e60067e2575a7b8db2c1a6da3371f09fde0cbf4698"),
    (lambda: [count_ordered_partitions(n) for n in range(9)],
     "e78b62d8f670b08ea8d829b71c15022e26865c64dae7b16470c23f052fe6b8de"),
    (lambda: [count_set_partitions(n) for n in range(11)],
     "176ca68dcf1be05dab36ddea745834fbe3a24a2ab837cafd5020181d13b81a03"),
    (lambda: [count_permutations_by_cycles(n) for n in range(10)],
     "64c17e8f538490ea526099dc0c9a1b42a13c9a172c83932587f949e7b0f92c85"),
    # Largest n first, so each smaller n is answered from the walk already made.
    (lambda: [count_ordered_partitions(n) for n in reversed(range(9))][::-1],
     "e78b62d8f670b08ea8d829b71c15022e26865c64dae7b16470c23f052fe6b8de"),
    (lambda: [count_set_partitions(n) for n in reversed(range(11))][::-1],
     "176ca68dcf1be05dab36ddea745834fbe3a24a2ab837cafd5020181d13b81a03"),
    (lambda: [count_permutations_by_cycles(n) for n in reversed(range(10))][::-1],
     "64c17e8f538490ea526099dc0c9a1b42a13c9a172c83932587f949e7b0f92c85"),
]


@pytest.mark.parametrize(
    "build, digest",
    GOLDEN_SHA256,
    ids=[
        "ordered-8", "set-10", "count-ordered", "count-set", "count-cycles",
        "count-ordered-reversed", "count-set-reversed", "count-cycles-reversed",
    ],
)
def test_enumeration_matches_golden_digest(build, digest):
    assert hashlib.sha256(repr(build()).encode()).hexdigest() == digest


def _one_line(cycles):
    """The permutation of 0..n-1 whose cycles, on 1..n, are the blocks."""
    perm = [None] * sum(map(len, cycles))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a - 1] = b - 1
    return tuple(perm)


@pytest.mark.parametrize("n", range(9))
def test_cycle_rule_builds_every_permutation_once(n):
    # Each structure of the cycle rule, read as a product of cycles, is a
    # distinct permutation, so together they are all n! of them; its block
    # count is its cycle count by the definition.
    seen = []
    for blocks in _walk(n, "permutation_cycles"):
        perm = _one_line(blocks)
        assert cycle_count(perm) == len(blocks)
        seen.append(perm)
    assert len(seen) == factorial(n)
    assert sorted(seen) == list(permutations(range(n)))


@pytest.mark.parametrize(
    "which, first, cap",
    [("ordered_partitions", 0, 8), ("set_partitions", None, 10), ("permutation_cycles", 1, 9)],
)
def test_count_walk_tallies_what_walk_yields(which, first, cap):
    # Up to the `verify --oracle` default ranges: the walk to n counts, at
    # every size m <= n, exactly the structures the yielding walk builds on {1..m}.
    reference = [Counter(map(len, _walk(m, which))) for m in range(cap + 1)]
    for n in range(cap + 1):
        counts = _count_walk(n, first)
        assert len(counts) == n + 1
        for m, row in enumerate(counts):
            assert row == [reference[m][k] for k in range(m + 1)], (n, m)


@pytest.mark.parametrize("first", [0, None, 1], ids=["ordered", "set", "cycles"])
@pytest.mark.parametrize("n", range(7))
def test_prefixes_leave_blocks_as_they_found_them(n, first):
    # At each m the walk yields, blocks hold exactly 1..m in nonempty blocks
    # ordered by least element: every deeper placement has been undone.
    blocks = []
    for m in _prefixes(blocks, n, first):
        assert all(blocks)
        assert sorted(x for block in blocks for x in block) == list(range(1, m + 1))
        leaders = [min(block) for block in blocks]
        assert leaders == sorted(leaders)
    assert blocks == []


def test_bounds_are_enforced():
    assert ENUMERATION_BOUNDS == {
        "ordered_partitions": 10,
        "set_partitions": 12,
        "permutation_cycles": 9,
    }

    def after_a_walk_to_the_bound(n):
        # The walk to 9 is kept, so a bad n must be refused before it is read.
        count_permutations_by_cycles(9)
        return count_permutations_by_cycles(n)

    cases = [
        (lambda: next(iter_ordered_partitions(11)),
         "ordered_partitions enumeration is capped at n = 10, got 11"),
        (lambda: next(iter_set_partitions(13)),
         "set_partitions enumeration is capped at n = 12, got 13"),
        (lambda: count_ordered_partitions(11),
         "ordered_partitions enumeration is capped at n = 10, got 11"),
        (lambda: count_set_partitions(13), "set_partitions enumeration is capped at n = 12, got 13"),
        (lambda: count_permutations_by_cycles(10),
         "permutation_cycles enumeration is capped at n = 9, got 10"),
        (lambda: next(iter_ordered_partitions(-1)),
         "element count must be a nonnegative integer, got -1"),
        (lambda: next(iter_set_partitions(-1)), "element count must be a nonnegative integer, got -1"),
        (lambda: count_permutations_by_cycles(-2),
         "element count must be a nonnegative integer, got -2"),
        (lambda: count_set_partitions(2.5), "element count must be a nonnegative integer, got 2.5"),
        (lambda: next(iter_set_partitions(True)),
         "element count must be a nonnegative integer, got True"),
        (lambda: count_set_partitions(True), "element count must be a nonnegative integer, got True"),
        (lambda: after_a_walk_to_the_bound(10),
         "permutation_cycles enumeration is capped at n = 9, got 10"),
        (lambda: after_a_walk_to_the_bound(-1),
         "element count must be a nonnegative integer, got -1"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


# The `verify --oracle` default caps.
_ORACLE_CAPS = {"ordered_partitions": 8, "set_partitions": 10, "permutation_cycles": 9}


@pytest.fixture
def walk_log(monkeypatch, tmp_path):
    """Start with no kept walks, and log "pid n" for every _count_walk, children's too.

    Returns a function that reads the log as a list of (pid, n) pairs.
    """
    log = tmp_path / "walks"
    log.touch()
    monkeypatch.setattr(enumeration, "_WALKS", {})

    def logged(n, first):
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {n}\n")
        return _count_walk(n, first)

    monkeypatch.setattr(enumeration, "_count_walk", logged)
    return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_process_walks():
    return {which: _count_walk(n, _FIRST[which]) for which, n in _ORACLE_CAPS.items()}


def test_side_by_side_walks_keep_what_in_process_walks_give(walk_log, capfd):
    _walk_side_by_side(_ORACLE_CAPS)
    _assert_no_child_left()
    assert enumeration._WALKS == _in_process_walks()
    # The first walk is made here, and each other in a child of its own.
    pids = {n: pid for pid, n in walk_log()}
    assert sorted(pids) == [8, 9, 10]
    assert pids[8] == os.getpid()
    assert len({pids[8], pids[9], pids[10]}) == 3
    assert capfd.readouterr() == ("", "")
    # Kept walks are not made again, and a shorter cap is answered from them.
    _walk_side_by_side({"set_partitions": 7, "permutation_cycles": 9})
    assert len(walk_log()) == 3


def test_a_walk_that_fails_in_a_child_makes_the_parent_raise(walk_log, monkeypatch, capfd):
    logged = enumeration._count_walk

    def set_walk_breaks(n, first):
        if first is None:
            raise RuntimeError("set walk broke")
        return logged(n, first)

    monkeypatch.setattr(enumeration, "_count_walk", set_walk_breaks)
    with pytest.raises(RuntimeError, match="the set_partitions count walk failed in a child process"):
        _walk_side_by_side(_ORACLE_CAPS)
    _assert_no_child_left()
    assert "set_partitions" not in enumeration._WALKS
    assert enumeration._WALKS["ordered_partitions"] == _count_walk(8, 0)
    # The child died without a word: no traceback reached stdout or stderr.
    assert capfd.readouterr() == ("", "")


def test_a_walk_that_fails_here_still_reaps_every_child(walk_log, monkeypatch):
    logged = enumeration._count_walk

    def ordered_walk_breaks(n, first):
        if first == 0:
            raise RuntimeError("ordered walk broke")
        return logged(n, first)

    monkeypatch.setattr(enumeration, "_count_walk", ordered_walk_breaks)
    with pytest.raises(RuntimeError, match="ordered walk broke"):
        _walk_side_by_side(_ORACLE_CAPS)
    _assert_no_child_left()
    assert enumeration._WALKS == {}


def test_without_fork_the_walks_run_here(walk_log, monkeypatch):
    monkeypatch.delattr(os, "fork")
    _walk_side_by_side(_ORACLE_CAPS)
    assert enumeration._WALKS == _in_process_walks()
    assert sorted(walk_log()) == [(os.getpid(), 8), (os.getpid(), 9), (os.getpid(), 10)]


def test_with_a_second_thread_the_walks_run_here_without_a_warning(walk_log):
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _walk_side_by_side(_ORACLE_CAPS)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert enumeration._WALKS == _in_process_walks()
    assert sorted(walk_log()) == [(os.getpid(), 8), (os.getpid(), 9), (os.getpid(), 10)]


def test_only_large_walks_are_forked(walk_log, monkeypatch):
    # A fork and reap cost more than a small walk, so walks to n < 8 are made
    # here; of the large ones, the first is made here and each other forked.
    forks = 0
    fork = os.fork

    def counted():
        nonlocal forks
        forks += 1  # counted in this process, before the child exists
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    for cap in range(5):
        monkeypatch.setattr(enumeration, "_WALKS", {})
        _walk_side_by_side(dict.fromkeys(_ORACLE_CAPS, cap))
    assert forks == 0
    assert {pid for pid, _ in walk_log()} == {os.getpid()}
    monkeypatch.setattr(enumeration, "_WALKS", {})
    _walk_side_by_side({"ordered_partitions": 8, "set_partitions": 7, "permutation_cycles": 9})
    assert forks == 1
    monkeypatch.setattr(enumeration, "_WALKS", {})
    _walk_side_by_side(_ORACLE_CAPS)
    assert forks == 3
    _assert_no_child_left()
    assert enumeration._WALKS == _in_process_walks()


def test_side_by_side_caps_are_checked_before_any_walk(walk_log):
    with pytest.raises(ValueError, match="set_partitions enumeration is capped at n = 12, got 13"):
        _walk_side_by_side({"ordered_partitions": 8, "set_partitions": 13})
    assert walk_log() == []
    assert enumeration._WALKS == {}
