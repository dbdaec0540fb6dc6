"""The four orders on sequences and position sets, plus streaming generation.

All four strict orders are realised through sort-key functions, so sorting and
three-way comparison fall out of Python int and tuple comparison:

* colex on position sets: S < T iff max(S symdiff T) is in T, which is the
  numeric order of the bitmasks sum(1 << i for i in S), for sets of any sizes.
* simplicial on {0,1}^n: rank first, ties by min(X symdiff Y) in X.
* <=_c on zero-free words: lexicographic over i = 1, 2, ... of the colex masks
  of the value-position sets R_i.  R_0 never differs for zero-free words, so
  the scan starts at i = 1.  The key is one integer, the masks concatenated
  with R_1 most significant.  `level_labels` generates the order without
  sorting.
* <= on {0,...,k}^n: zero count, then <=_c on reduced words, then colex on the
  zero-position sets; `iter_leq` streams it.
"""
from __future__ import annotations

import itertools

from .seqcore import (
    Family, Seq, capped_pow, check_family_size, check_shape, check_size, member_cap, place_label,
    positions_of, rank,
)


def colex_key(s) -> int:
    """Sort key realising colex: the bitmask sum(1 << i for i in s) of the set."""
    mask = 0
    for i in s:
        mask |= 1 << i
    return mask


def simplicial_key(x: Seq):
    return (rank(x), tuple(sorted(positions_of(x, 1))))


def c_key(u: Seq, k: int) -> int:
    """Sort key realising <=_c on zero-free words over {1,...,k}; see leq_key."""
    return leq_key(u, k)[1]


def leq_key(x: Seq, k: int) -> tuple[int, int, int]:
    """Sort key realising the <= order on {0,...,k}^n, in one pass: (zero
    count, c, colex mask of the zero positions).

    c is the <=_c key of the reduced word.  With L nonzero entries, entry e at
    reduced position j sets bit L*(k-e) + j: the L-bit colex masks of R_1, ...,
    R_k concatenated, R_1 most significant, which compares like the tuple of
    masks at a cost that does not grow with k.
    """
    zc = x.count(0)
    width = len(x) - zc
    c = zeros = j = 0
    for i, e in enumerate(x):
        if e:
            c |= 1 << (width * (k - e) + j)
            j += 1
        else:
            zeros |= 1 << i
    return (zc, c, zeros)


def colex_combinations(n: int, r: int):
    """All r-subsets of [n] as ascending tuples, streamed in colex order."""
    if r == 0:
        yield ()
        return
    c = list(range(1, r + 1))
    # Raise the lowest element that can rise and reset the ones below it; the
    # top element reaching n + 1 ends the stream (at once when r > n).
    while c[-1] <= n:
        yield tuple(c)
        j = 0
        while j < r - 1 and c[j] + 1 == c[j + 1]:
            j += 1
        c[j] += 1
        c[:j] = range(1, j + 1)


def level_labels(n: int, k: int, zc: int):
    """The component labels of the level with `zc` zeros, streamed in <=_c order.

    <=_c is lexicographic over the masks of R_1, ..., R_{k-1}; R_k is the rest.
    With values low..k-1 still to place on the `free` positions (which hold k),
    the label without them comes first; then, for each value from k-1 down,
    each nonempty submask of `free` in increasing order takes that value, and
    the positions left are filled with the values above it.
    """
    def fill(label: Seq, low: int, free: int):
        yield label
        for value in range(k - 1, low - 1, -1):
            sub = 0
            while sub := (sub - free) & free:
                placed = tuple(value if sub >> i & 1 else e for i, e in enumerate(label))
                yield from fill(placed, value + 1, free & ~sub)

    length = n - zc
    if k >= 1 or length == 0:
        yield from fill((k,) * length, 1, (1 << length) - 1)


def iter_leq(n: int, k: int):
    """Stream {0,...,k}^n in <= order: level by level, component by component,
    colex on zero positions within a component."""
    for zc in range(n + 1):
        for label in level_labels(n, k, zc):
            for zeros in colex_combinations(n, zc):
                yield place_label(label, zeros)


def initial_segment_leq(n: int, k: int, m: int) -> Family:
    """The first m sequences of {0,...,k}^n in <= order."""
    check_shape(n, k)
    check_size(m, k + 1, n)
    check_family_size(m, n)
    return Family(n, k, frozenset(itertools.islice(iter_leq(n, k), m)))


def simplicial_sorted(n: int) -> list[Seq]:
    """All of {0,1}^n sorted by the simplicial order."""
    return sorted(itertools.product(range(2), repeat=n), key=simplicial_key)


def simplicial_initial_segment(n: int, m: int) -> Family:
    """The first m sequences of {0,1}^n in simplicial order."""
    check_shape(n, 1)
    check_size(m, 2, n)
    check_family_size(capped_pow(2, n, member_cap(n)), n)  # all of {0,1}^n is sorted
    return Family(n, 1, frozenset(simplicial_sorted(n)[:m]))
