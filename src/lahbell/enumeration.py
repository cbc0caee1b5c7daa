"""Brute-force enumeration of the counted structures, independent of all formulas.

Every structure is built explicitly, one at a time, so the counts read off
them depend on nothing but the combinatorial definitions.  They are the
ground truth the triangle recurrences are checked against.

One walk, :func:`_walk`, builds all three kinds on {1..n} by insertion:
element m joins an existing block at any position ``>= first``, or opens a
new block after all blocks holding smaller elements.  Three rules, the
entries of ``_FIRST``, cover the three kinds:

- a set block takes m only at its end, so it stays ascending;
- an ordered list takes m at any position (``first = 0``);
- a cycle written from its least element takes m anywhere after that
  leader (``first = 1``), so the block (a, b, ..., z) is the cycle
  a -> b -> ... -> z -> a.

Within an ordered-list or cycle block, m goes in at place ``first`` and
moves one place right per swap, as in plain changes, so each later place
costs one swap rather than an insert and a delete.  Blocks stay listed in
increasing order of least element, and removing the largest element
inverts the construction uniquely, so each structure is generated exactly
once.  The walk mutates one list of blocks in place and yields that live
list for every structure; a caller copies what it keeps.
:func:`iter_set_partitions` and :func:`iter_ordered_partitions` yield
copies as tuples of tuples.  The yielding walk passes on the deepest nodes
of the stack's walk to n + 1 and has no placement rule of its own; no
command runs it.

The counts come from a second walk, :func:`_count_walk`, which builds the
same structures from the same stack, :func:`_prefixes`, places the last two
elements itself and yields nothing.  On the way to n the walk builds every
structure on {1..m}, m < n, so it tallies each one by its size and block
count, and one walk counts every size up to n.  Counts depend on n alone,
so each kind keeps its longest walk for the life of the process.

:func:`_walk_side_by_side` makes several kinds' walks at once: this process
makes the small ones and one large one, and each other large one runs in a
forked child that sends its counts back through a pipe.  Every process runs
the same :func:`_count_walk`, so every structure is still built and counted
one at a time.  Without ``os.fork``, or with a second thread running, the
walks run here one after another.  The count functions ask it for their walk
too, so every count walk is made there.
"""

from __future__ import annotations

import marshal
import os
import threading
from typing import Iterator, Optional

from . import _EXPORTS
from .exact import _index

__all__ = _EXPORTS["enumeration"]

# Per-enumerator caps; structure counts grow faster than factorially beyond
# them.  The largest, ordered partitions of 10 elements, is 58,941,091
# structures: count_ordered_partitions(10) took 6.5-8.7 s in one fresh
# process (Python 3.11, 2 vCPUs); set partitions of 12 took 0.4-0.7 s,
# permutations of 9 about 0.05 s.
ENUMERATION_BOUNDS = {
    "ordered_partitions": 10,
    "set_partitions": 12,
    "permutation_cycles": 9,
}

# The insertion rule of each kind: the least position m may take in a block,
# None for a set block (m only at its end).
_FIRST: dict[str, Optional[int]] = {
    "ordered_partitions": 0,
    "set_partitions": None,
    "permutation_cycles": 1,
}

Partition = tuple[tuple[int, ...], ...]
Blocks = list[list[int]]


def _check_bound(n: int, which: str) -> None:
    _index(n, "element count")
    bound = ENUMERATION_BOUNDS[which]
    if n > bound:
        raise ValueError(f"{which} enumeration is capped at n = {bound}, got {n}")


def _extend(blocks: Blocks, m: int, first: Optional[int]) -> Iterator[None]:
    """Place m in each of its places in turn, in a block and then as a new block.

    In an ordered-list or cycle block, m goes in at place first and moves
    right by swaps to the end, where it is popped; a set block's one place
    is its end.  Each placement is made just before the generator yields
    and undone when it is resumed, so blocks is as it was once the generator
    is exhausted.  Blocks are read when the generator reaches them: every
    later placement must be undone before it is resumed.
    """
    for block in blocks:
        if first is None:
            block.append(m)
            yield
        else:
            block.insert(first, m)
            yield
            for pos in range(first + 1, len(block)):
                block[pos - 1], block[pos] = block[pos], m
                yield
        block.pop()
    blocks.append([m])
    yield
    blocks.pop()


def _prefixes(blocks: Blocks, n: int, first: Optional[int]) -> Iterator[int]:
    """Every structure on {1..m}, m < n, built in place in blocks; yields m for each.

    The root (m = 0) comes first, then each placement in walk order.  Element
    m is placed by the m-th generator of one stack of :func:`_extend`
    generators, each of which undoes its own placements.  A caller may place
    n itself, and must leave blocks as it found it before asking for the next
    structure.
    """
    yield 0
    stack = [_extend(blocks, 1, first)] if n > 1 else []
    while stack:
        if next(stack[-1], False) is False:
            stack.pop()
            continue
        yield len(stack)
        if len(stack) < n - 1:
            stack.append(_extend(blocks, len(stack) + 1, first))


def _walk(n: int, which: str) -> Iterator[Blocks]:
    """Every structure of one kind on {1..n}, as one live list of blocks.

    The structures on {1..n} are the deepest nodes of the walk to n + 1.
    """
    _check_bound(n, which)
    blocks: Blocks = []
    for m in _prefixes(blocks, n + 1, _FIRST[which]):
        if m == n:
            yield blocks


def _count_walk(n: int, first: Optional[int]) -> list[list[int]]:
    """counts[m][k]: the structures on {1..m} with k blocks, for every m <= n, from one walk.

    _walk's structures, built the same way, but nothing is yielded: each
    structure is tallied as it is built.  The stack of :func:`_prefixes` runs
    to n - 2, element n - 1 is placed by :func:`_extend`, and an inline loop
    places n by _extend's moves, tallying each placement into a local that
    joins counts[n] once per structure on {1..n-1}.
    """
    counts = [[0] * (m + 1) for m in range(n + 1)]
    blocks: Blocks = []
    if n < 2:  # no element n - 1 to place: tally every prefix of the walk to n
        for m in _prefixes(blocks, n + 1, first):
            counts[m][len(blocks)] += 1
        return counts
    below, last = counts[n - 1], counts[n]
    for m in _prefixes(blocks, n - 1, first):
        counts[m][len(blocks)] += 1
        if m != n - 2:
            continue
        for _ in _extend(blocks, n - 1, first):
            k = len(blocks)
            below[k] += 1
            placed = 0
            for block in blocks:
                if first is None:
                    block.append(n)
                    placed += 1
                else:
                    block.insert(first, n)
                    placed += 1
                    for pos in range(first + 1, len(block)):
                        block[pos - 1], block[pos] = block[pos], n
                        placed += 1
                block.pop()
            last[k] += placed
            blocks.append([n])
            last[k + 1] += 1
            blocks.pop()
    return counts


# The longest counting walk made so far, per kind.  Enumeration reads no
# triangle, so no fault elsewhere can make these rows stale.
_WALKS: dict[str, list[list[int]]] = {}


def _counts(n: int, which: str) -> dict[int, int]:
    """Counts by block count k of the structures on {1..n}, in increasing k.

    Answered from the longest walk of this kind so far; a walk to n is made
    only when none reaches n.
    """
    _walk_side_by_side({which: n})
    return {k: count for k, count in enumerate(_WALKS[which][n]) if count}


def _fork_walk(n: int, first: Optional[int]) -> tuple[int, int]:
    """Start a child that makes the walk to n and writes its counts, marshalled, to a pipe.

    Returns the child's pid and the pipe's read end.  The child writes to
    nothing else and leaves with os._exit: status 0 once every byte is
    written, 1 if anything raised.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pipe.write(marshal.dumps(_count_walk(n, first)))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def _reap(pid: int, read: int) -> Optional[bytes]:
    """Read a child's pipe to its end and reap the child; the bytes if it exited with 0."""
    try:
        with open(read, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    return data if status == 0 else None


# A walk to n < 8 runs here: a fork and reap cost 1.3-2 ms, while the walks
# to 7 took 4.8 ms (ordered), 0.15 ms (set) and 1.0 ms (cycles), and those to
# 8 took 47, 0.5 and 5.7 ms (best of 5, Python 3.11, one core of a 2-vCPU VM).
_FORK_FROM = 8


def _walk_side_by_side(caps: dict[str, int]) -> None:
    """Make, at once, the walk to caps[which] of each kind that no kept walk reaches.

    This process makes the small walks (to n < _FORK_FROM) and the first
    large one, and each other large walk runs in a forked child whose counts
    are kept exactly as an in-process walk's.
    Every child is reaped before this returns or raises; when something
    raises, the children left are waited for, not killed, since each makes
    one bounded walk.  A child that fails makes this raise, and nothing of
    it is kept.  Without os.fork, or with a second thread running (forking
    then is unsafe), the walks run here one after another.
    """
    for which, n in caps.items():
        _check_bound(n, which)
    missing = [(which, n) for which, n in caps.items() if len(_WALKS.get(which, ())) <= n]
    away: list[tuple[str, int]] = []
    if hasattr(os, "fork") and threading.active_count() == 1:
        away = [(which, n) for which, n in missing if n >= _FORK_FROM][1:]
    here = [walk for walk in missing if walk not in away]
    children: list[tuple[str, int, int]] = []
    try:
        for which, n in away:
            children.append((which, *_fork_walk(n, _FIRST[which])))
        for which, n in here:
            _WALKS[which] = _count_walk(n, _FIRST[which])
        while children:
            which, pid, read = children.pop(0)
            data = _reap(pid, read)
            if data is None:
                raise RuntimeError(f"the {which} count walk failed in a child process")
            _WALKS[which] = marshal.loads(data)
    finally:
        for _, pid, read in children:  # left only when something raised
            _reap(pid, read)


def iter_set_partitions(n: int) -> Iterator[Partition]:
    """All partitions of {1..n} into nonempty unordered blocks, ascending inside."""
    return (tuple(map(tuple, blocks)) for blocks in _walk(n, "set_partitions"))


def iter_ordered_partitions(n: int) -> Iterator[Partition]:
    """All partitions of {1..n} into nonempty internally ordered blocks."""
    return (tuple(map(tuple, blocks)) for blocks in _walk(n, "ordered_partitions"))


def count_set_partitions(n: int) -> dict[int, int]:
    """Counts by block count; entry k is the number of k-block partitions."""
    return _counts(n, "set_partitions")


def count_ordered_partitions(n: int) -> dict[int, int]:
    """Counts by block count over ordered-block partitions."""
    return _counts(n, "ordered_partitions")


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
    """Counts of permutations of n elements by number of cycles, each built in cycle notation."""
    return _counts(n, "permutation_cycles")
