"""The four orders on sequences and position sets, plus streaming generation.

All four strict orders are realised through sort-key functions, so sorting and
three-way comparison fall out of Python int and tuple comparison:

* colex on position sets: S < T iff max(S symdiff T) is in T, which is the
  numeric order of the bitmasks sum(1 << i for i in S), for sets of any sizes.
* simplicial on {0,1}^n: rank first, ties by min(X symdiff Y) in X;
  `iter_simplicial` streams it.
* <=_c on zero-free words: lexicographic over i = 1, 2, ... of the colex masks
  of the value-position sets R_i.  R_0 never differs for zero-free words, so
  the scan starts at i = 1.  The key is one integer, the masks concatenated
  with R_1 most significant.  `level_labels` streams the order by a successor
  step, without sorting, and `label_rank` maps a label to its index in it
  without generating any.
* <= on {0,...,k}^n: zero count, then <=_c on reduced words, then colex on the
  zero-position sets; `iter_leq` streams it.
"""
from __future__ import annotations

import itertools

from .seqcore import (
    Family, Seq, check_family_size, check_shape, check_size, place_label, positions_of, rank,
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

    The first label holds k everywhere.  With t the label's top value, R_t
    fills every position holding t or more, so the next label raises R_{t-1}
    by one as a mask of those positions: the lowest position holding t takes
    t - 1, and every other one that holds t, or t - 1 below it, goes back to k.
    At t = k the others holding t already hold k, so only the positions below
    the lowest one are walked: a binary increment on the positions holding
    k - 1 or k.
    """
    length = n - zc
    if k < 1 and length:
        return
    label = [k] * length
    while True:
        yield tuple(label)
        top = max(label, default=1)
        if top == 1:
            return
        first, low = label.index(top), top - 1
        for p in range(first):
            if label[p] == low:
                label[p] = k
        if top < k:
            for p in range(first + 1, length):
                if label[p] == top:
                    label[p] = k
        label[first] = low


def _mask_weight(bits: list[bool], x: int) -> tuple[int, int]:
    """(W, clear) for the bits b_0, b_1, ... of a mask: W is the sum over set bits
    p of (x+1)^p * x^(clear bits above p), and `clear` counts the clear bits.
    Halves are joined as W = W_high (x+1)^|low| + W_low x^clear_high, so a long
    mask costs a few big products, not one per bit."""
    if len(bits) > 64:
        half = len(bits) // 2
        low, low_clear = _mask_weight(bits[:half], x)
        high, high_clear = _mask_weight(bits[half:], x)
        return high * (x + 1) ** half + low * x ** high_clear, low_clear + high_clear
    weight = clear = 0
    power = 1  # (x+1)^p
    for bit in bits:
        if bit:
            weight += power
        else:
            weight *= x
            clear += 1
        power *= x + 1
    return weight, clear


def label_rank(label: Seq, k: int) -> int:
    """The index of the zero-free word `label` over {1,...,k} in the <=_c order
    of its level: `level_labels(n, k, n - len(label))` yields it at this index.

    <=_c compares the masks of R_1, R_2, ... in turn.  With the positions of
    values below i fixed and f positions left, a mask T < R_i of those
    positions leaves (k-i)^(f-|T|) labels, all before `label`.  Summed over the
    T below a mask S, with x = k - i, that is x times the weight of S in
    `_mask_weight`; a value absent from `label` adds nothing.
    """
    index = 0
    free = label  # the entries not yet ranked, at least `value` from here on
    for value in sorted(set(label)):
        if value == k:
            break
        x = k - value
        index += x * _mask_weight([e == value for e in free], x)[0]
        free = [e for e in free if e != value]
    return index


def iter_leq(n: int, k: int):
    """Stream {0,...,k}^n in <= order: level by level, component by component,
    colex on zero positions within a component."""
    yield from level_labels(n, k, 0)  # a zero-free label is its own component
    for zc in range(1, n + 1):
        for label in level_labels(n, k, zc):
            for zeros in colex_combinations(n, zc):
                yield place_label(label, zeros)


def initial_segment_leq(n: int, k: int, m: int) -> Family:
    """The first m sequences of {0,...,k}^n in <= order."""
    check_shape(n, k)
    check_size(m, k + 1, n)
    check_family_size(m, n)
    return Family.in_leq_order(n, k, itertools.islice(iter_leq(n, k), m))


def iter_simplicial(n: int):
    """Stream {0,1}^n in simplicial order: by ones count, then within a count
    lexicographically on the ascending positions of the ones."""
    for ones in range(n + 1):
        for where in itertools.combinations(range(1, n + 1), ones):
            x = [0] * n
            for i in where:
                x[i - 1] = 1
            yield tuple(x)


def simplicial_initial_segment(n: int, m: int) -> Family:
    """The first m sequences of {0,1}^n in simplicial order."""
    check_shape(n, 1)
    check_size(m, 2, n)
    check_family_size(m, n)
    return Family(n, 1, frozenset(itertools.islice(iter_simplicial(n), m)))
