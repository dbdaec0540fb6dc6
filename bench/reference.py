"""Expected answers for the cli workload, computed without importing delshadow.

Each function restates a definition from the paper directly, so the output gate
does not trust the code it checks.  The closed form uses the colex cascade
m = C(a_r, r) + C(a_{r-1}, r-1) + ... instead of the program's recursion, which
also gives an answer where the program hits Python's recursion limit.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb


def leq_key(x, k):
    """Sort key of the <= order: zero count, then <=_c of the reduced word,
    then colex of the zero positions (descending tuples compared in order)."""
    zeros = [i for i, e in enumerate(x, start=1) if e == 0]
    word = [e for e in x if e != 0]
    c_part = tuple(
        tuple(i for i in range(len(word), 0, -1) if word[i - 1] == v) for v in range(1, k + 1)
    )
    return (len(zeros), c_part, tuple(reversed(zeros)))


def family_text(n, k, members) -> str:
    """The family file format: header, then members sorted in the <= order."""
    lines = [f"{n} {k}"]
    lines += [" ".join(map(str, x)) for x in sorted(members, key=lambda x: leq_key(x, k))]
    return "\n".join(lines) + "\n"


def _place(label, zeros, n):
    it = iter(label)
    return tuple(0 if i in zeros else next(it) for i in range(1, n + 1))


def initial_segment(n, k, m) -> list:
    """The first m sequences of {0..k}^n in the <= order: levels by zero count,
    components by <=_c of their label, zero-position sets in colex order."""
    out: list = []
    for zc in range(n + 1):
        if len(out) == m:
            break
        labels = sorted(
            itertools.product(range(1, k + 1), repeat=n - zc),
            key=lambda w: leq_key(w, k)[1],
        )
        zero_sets = sorted(
            itertools.combinations(range(1, n + 1), zc), key=lambda s: tuple(reversed(s))
        )
        for label in labels:
            for zs in zero_sets:
                if len(out) == m:
                    return out
                out.append(_place(label, frozenset(zs), n))
    return out


def children(x, r):
    return {x[:i] + x[i + 1:] for i, e in enumerate(x) if e <= r}


def shadow(members, r) -> set:
    out: set = set()
    for x in members:
        out |= children(x, r)
    return out


def bound_text(n, members, r) -> str:
    """`bound` output: sum of low-coordinate counts over n(r+1), then |delta_r A|."""
    b = Fraction(sum(sum(1 for e in x if e <= r) for x in members), n * (r + 1))
    size = len(shadow(members, r)) if members else 0
    return f"bound {b.numerator}/{b.denominator}\nshadow {size}\n"


def colex_ones(n, r, m) -> int:
    """Members containing 1 among the first m r-subsets of [n] in colex order.

    Greedy cascade: take the largest a with C(a, r) <= m, count the C(a-1, r-1)
    sets of that full block that contain 1, and continue with m - C(a, r) at
    r - 1 below a.
    """
    total, top = 0, n
    while m > 0 and r > 0:  # the empty set (r = 0) holds no 1
        lo, hi = r, top  # C(r, r) = 1 <= m
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if comb(mid, r) <= m:
                lo = mid
            else:
                hi = mid - 1
        total += comb(lo - 1, r - 1)
        m -= comb(lo, r)
        top, r = lo - 1, r - 1
    return total


def min_shadow(n, k, m) -> int:
    """|delta B| for B the size-m initial segment of <= on {0..k}^n: each full
    component with i zeros contributes C(n-1, i-1); the one partial component
    contributes its colex ones count."""
    total = 0
    for i in range(n + 1):
        comp = comb(n, i)
        count = k ** (n - i)
        full = min(count, m // comp)
        if i:
            total += full * comb(n - 1, i - 1)
        m -= full * comp
        if m == 0:
            break
        if full < count:
            return total + colex_ones(n, i, m)
    return total
