"""The four orders on sequences and position sets, plus streaming generation.

All four strict orders are realised through sort-key functions, so sorting and
three-way comparison fall out of Python tuple comparison:

* colex on position sets: S < T iff max(S symdiff T) is in T, which is
  lexicographic comparison of the descending-sorted tuples.
* simplicial on {0,1}^n: rank first, ties by min(X symdiff Y) in X.
* <=_c on zero-free words: lexicographic over i = 1, 2, ... of the colex keys
  of the value-position sets R_i.  R_0 never differs for zero-free words, so
  the scan starts at i = 1.
* <= on {0,...,k}^n: zero count, then <=_c on reduced words, then colex on the
  zero-position sets.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .seqcore import Family, Seq, place_label, positions_of, rank, reduced, zero_count


def colex_key(s) -> tuple[int, ...]:
    """Sort key realising colex: descending-sorted tuple, compared lexicographically."""
    return tuple(sorted(s, reverse=True))


def colex_less(s, t) -> bool:
    """Strict colex order on equal-size position sets."""
    s, t = frozenset(s), frozenset(t)
    if len(s) != len(t):
        raise ValueError(f"colex compares equal-size sets, got sizes {len(s)} and {len(t)}")
    return colex_key(s) < colex_key(t)


def simplicial_key(x: Seq):
    return (rank(x), tuple(sorted(positions_of(x, 1))))


def simplicial_less(x: Seq, y: Seq) -> bool:
    """Strict simplicial order on {0,1}^n."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if any(e > 1 for e in x) or any(e > 1 for e in y):
        raise ValueError("simplicial order applies to {0,1}-sequences only")
    return simplicial_key(x) < simplicial_key(y)


def c_key(u: Seq, k: int):
    """Sort key realising <=_c on zero-free words over {1,...,k}."""
    return tuple(colex_key(positions_of(u, i)) for i in range(1, k + 1))


def c_less(u: Seq, v: Seq, k: int | None = None) -> bool:
    """Strict <=_c order on equal-length zero-free words."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    if 0 in u or 0 in v:
        raise ValueError("<=_c applies to zero-free words only")
    if k is None:
        k = max(itertools.chain(u, v), default=1)
    return c_key(u, k) < c_key(v, k)


def leq_key(x: Seq, k: int):
    """Sort key realising the <= order on {0,...,k}^n."""
    return (zero_count(x), c_key(reduced(x), k), colex_key(positions_of(x, 0)))


def leq_less(x: Seq, y: Seq, k: int) -> bool:
    """Strict <= order on {0,...,k}^n."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return leq_key(x, k) < leq_key(y, k)


def colex_combinations(n: int, r: int):
    """All r-subsets of [n] as ascending tuples, streamed in colex order."""
    if r == 0:
        yield ()
        return
    for top in range(r, n + 1):
        for rest in colex_combinations(top - 1, r - 1):
            yield rest + (top,)


def colex_initial_positions(n: int, r: int, m: int) -> list[frozenset[int]]:
    """The first m r-subsets of [n] in colex order."""
    if not (0 <= m <= comb(n, r)):
        raise ValueError(f"size {m} not in [0, C({n},{r})={comb(n, r)}]")
    return [frozenset(c) for c in itertools.islice(colex_combinations(n, r), m)]


@lru_cache(maxsize=None)
def level_labels(n: int, k: int, zc: int) -> tuple[Seq, ...]:
    """The component labels of the level with `zc` zeros, in <=_c order."""
    return tuple(sorted(
        itertools.product(range(1, k + 1), repeat=n - zc),
        key=lambda s: c_key(s, k),
    ))


def iter_leq(n: int, k: int):
    """Stream {0,...,k}^n in <= order: level by level, component by component,
    colex on zero positions within a component."""
    for zc in range(n + 1):
        for label in level_labels(n, k, zc):
            for zeros in colex_combinations(n, zc):
                yield place_label(label, frozenset(zeros), n)


def initial_segment_leq(n: int, k: int, m: int) -> Family:
    """The first m sequences of {0,...,k}^n in <= order."""
    if not (0 <= m <= (k + 1) ** n):
        raise ValueError(f"size {m} not in [0, {(k + 1) ** n}]")
    return Family.of(n, k, itertools.islice(iter_leq(n, k), m))


def simplicial_sorted(n: int) -> list[Seq]:
    """All of {0,1}^n sorted by the simplicial order."""
    return sorted(itertools.product(range(2), repeat=n), key=simplicial_key)


def simplicial_initial_segment(n: int, m: int) -> Family:
    """The first m sequences of {0,1}^n in simplicial order."""
    if not (0 <= m <= 2 ** n):
        raise ValueError(f"size {m} not in [0, {2 ** n}]")
    return Family.of(n, 1, simplicial_sorted(n)[:m])
