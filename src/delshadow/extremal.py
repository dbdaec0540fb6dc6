"""The colex ones-count cascade, compression operators, and the closed-form
minimum shadow.

The minimum delta-shadow for a family of given size is attained by an initial
segment of the <= order: levels fill bottom-up (fewest zeros first), within a
level components fill whole in <=_c order, and the single partial component is
a colex initial segment of zero-position sets.  Its shadow size therefore
splits into full-component terms plus one partial-component term counted by
the colex cascade of `ones_count_colex`.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb

from .orders import colex_combinations, label_rank, level_labels
from .seqcore import (
    Family, Seq, capped_pow, check_family_size, check_radius, check_shape,
    check_size, low_count, member_cap, place_label, reduced,
)


# ---------------------------------------------------------------------------
# The colex ones-count cascade


def ones_count_colex(n: int, r: int, m: int) -> int:
    """|A_1| for A the colex initial segment of r-subsets of [n] of size m.

    Greedy cascade m = C(a_r, r) + C(a_{r-1}, r-1) + ... with a_r > a_{r-1} > ...:
    the term C(a_i, i) covers the i-subsets of [a_i] joined to a fixed set of
    larger elements, C(a_i - 1, i - 1) of which contain 1.  The a_i are found
    by one downward walk of a from n, updating C(a, i) in place.
    """
    if not (0 <= m <= comb(n, r)):
        raise ValueError(f"size {m} not in [0, C({n},{r})={comb(n, r)}]")
    total = 0
    a, i, c = n, r, comb(n, r)  # c = C(a, i)
    while m and i:
        while c > m:
            c = c * (a - i) // a  # C(a - 1, i)
            a -= 1
        m -= c
        c = c * i // a  # C(a - 1, i - 1): the term's sets containing 1
        total += c
        a -= 1
        i -= 1
    return total


def co_initial_ones_count(n: int, r: int, m: int) -> int:
    """|A_1| of the final colex segment of size m (full layer minus an initial one)."""
    return comb(n - 1, r - 1) - ones_count_colex(n, r, comb(n, r) - m)


# ---------------------------------------------------------------------------
# Compression


def _validate_compress_words(s: Seq, t: Seq, n: int, k: int) -> None:
    # compress trusts its output: these checks are what keep its members valid.
    for w in (s, t):
        if not all(1 <= e <= k for e in w):
            raise ValueError(f"component label {w} must have its entries in [1, {k}]")
        if len(w) > n:
            raise ValueError(f"component label {w} longer than n={n}")
    if len(s) == len(t):
        # Mass packs into C_s first; any distinct same-length pair is valid.
        if s == t:
            raise ValueError("labels must be distinct")
    elif len(t) != len(s) - 1:
        raise ValueError(
            f"labels must have equal length or len(t) = len(s) - 1, "
            f"got len(s)={len(s)}, len(t)={len(t)}"
        )


def compress(a: Family, s: Seq, t: Seq) -> Family:
    """The s,t-compression: pack A's mass in C_s u C_t into C_s first, then C_t,
    each as a colex initial segment of zero-position sets."""
    s, t = tuple(s), tuple(t)
    n = a.n
    _validate_compress_words(s, t, n, a.k)
    out = {x for x in a.members if reduced(x) not in (s, t)}
    q = len(a.members) - len(out)  # A's mass in C_s u C_t
    fill_s = min(q, comb(n, n - len(s)))
    for label, fill in ((s, fill_s), (t, q - fill_s)):
        out.update(place_label(label, zeros)
                   for zeros in itertools.islice(colex_combinations(n, n - len(label)), fill))
    return Family(n, a.k, frozenset(out))


def canonicalize(a: Family) -> Family:
    """Compress A to the initial segment of <= of the same size."""
    return canonicalize_with_potentials(a)[0]


def canonicalize_with_potentials(a: Family) -> tuple[Family, list[int], list[int]]:
    """Colex-pack each component, pour mass down the levels to a fixpoint,
    then pack each level into its <=_c-earliest components.

    A colex-packed family is its count per component label.  The
    s,t-compression sets c[s] to min(c[s] + c[t], |C_s|) and c[t] to the rest,
    so compressing every sink s of one level with every source t of the level
    above, last labels first, is a pour of min(mass in the sources, room in
    the sinks): the sinks are topped up one label at a time from the level's
    last label, and the sources drain from theirs.  A pass pours each level
    into the one below, top down, and passes repeat until no mass moves; each
    effective pass lowers v, a non-negative integer, so the passes end.  The
    pairwise same-level compressions leave a level packed as |C|, ..., |C|,
    rest, 0, ..., which is their fixpoint and, for the level's mass, the one
    placement of least w; so packing is read off each level's mass, and it
    lowers w once if it moves anything.

    A level is held as the counts of the labels that hold mass, keyed once by
    their index from the level's last label, k^(n-zc) - 1 - `label_rank`, so
    the work follows the family, not the k^(n-zc) labels of each level: a
    pour touches the labels holding mass and the sinks it fills, and needs
    neither the level's size nor, past the mass in play, its components'
    size.  The members are placed once, at the end, in <= order, on the first
    labels of each packed level, drawn from `level_labels` one per label
    placed.

    Returns (result, v_trace, w_trace) where the traces hold the potential at
    the start and after every effective pass of the respective phase.
    """
    n, k = a.n, a.k
    # levels[zc]: index from the last label -> count, for the labels of the
    # level with zc zeros that hold mass; a level without mass has no entry.
    levels: dict[int, dict[int, int]] = {}
    for label, c in Counter(reduced(x) for x in a.members).items():
        levels.setdefault(n - len(label), {})[k ** len(label) - 1 - label_rank(label, k)] = c

    # v sums the members' zero counts, so a pour lowers it by the mass it moves.
    v = sum(zc * sum(level.values()) for zc, level in levels.items())
    v_trace = [v]
    while True:
        # A pour into an empty level moves mass, so every level from the top
        # down holds mass when the pass reaches it, and a pour that moves
        # nothing finds its sinks present.
        for zc in range(max(levels, default=0), 0, -1):
            sources, sinks = levels[zc], levels.setdefault(zc - 1, {})
            mass, held = sum(sources.values()), sum(sinks.values())
            # Capped above mass + held, the k^(n-zc+1) sinks and their size
            # C(n, zc-1) pour exactly as they would in full.
            cap = _capped_comb(n, zc - 1, mass + held)
            moved = min(mass, capped_pow(k, n - zc + 1, mass + held) * cap - held)
            if not moved:
                continue
            v -= moved
            t, left = 0, moved
            while left:
                fill = min(cap - sinks.get(t, 0), left)
                sinks[t] = sinks.get(t, 0) + fill
                t, left = t + 1, left - fill
            left = moved
            for t in sorted(sources):
                if sources[t] > left:
                    sources[t] -= left
                    break
                left -= sources.pop(t)
            if not sources:
                del levels[zc]
        if v == v_trace[-1]:
            break
        v_trace.append(v)

    # w sums the members' 1-based <=_c indices of their components, which are
    # k^(n-zc) - j from the last-label index j.  A packed level holds its
    # first labels in order, so its w is a sum of an arithmetic series.
    w = packed_w = 0
    members = []
    for zc in sorted(levels):
        level, top, cap = levels[zc], k ** (n - zc), comb(n, zc)
        w += sum(c * (top - j) for j, c in level.items())
        whole, rest = divmod(sum(level.values()), cap)
        packed_w += cap * whole * (whole + 1) // 2 + rest * (whole + 1)
        counts = [cap] * whole + ([rest] if rest else [])
        members += (
            place_label(label, zeros)
            for c, label in zip(counts, level_labels(n, k, zc))
            for zeros in itertools.islice(colex_combinations(n, zc), c)
        )
    w_trace = [w] if packed_w == w else [w, packed_w]
    return Family.in_leq_order(n, k, members), v_trace, w_trace


def _capped_comb(n: int, j: int, cap: int) -> int:
    """min(C(n, j), cap + 1), stepped up from C(n, 0) so that a binomial far
    above cap costs a few steps."""
    j = min(j, n - j)
    c = 1
    for i in range(j):
        c = c * (n - i) // (i + 1)  # C(n, i + 1), rising while i + 1 <= n / 2
        if c > cap:
            return cap + 1
    return c


# ---------------------------------------------------------------------------
# Closed-form minimum shadow and canonical families


def min_delta_shadow_size(n: int, k: int, m: int) -> int:
    """|delta B| for B the size-m initial segment of <= on {0,...,k}^n.

    Full components of the level with i zeros contribute C(n-1, i-1) each
    (nothing at i = 0); the single partial component contributes its
    Lemma-4 count ones_count_colex(n, i, q).
    """
    check_shape(n, k)
    check_size(m, k + 1, n)
    total = 0
    remaining = m
    comp_size, per_full = 1, 0  # C(n, i) and C(n-1, i-1), stepped with i
    # k^(n-i) components per level.  Capped above m, k^n decides level 0 as
    # the whole power would; a level is passed only when all its components
    # fit in m, so every later count is exact and steps down by k.
    n_components = capped_pow(k, n, m)
    for i in range(n + 1):
        full = min(n_components, remaining // comp_size)
        total += full * per_full
        remaining -= full * comp_size
        if remaining == 0:
            break
        if full < n_components:
            # Exactly one partial component, by construction of the <= order.
            total += ones_count_colex(n, i, remaining)
            remaining = 0
            break
        per_full = comp_size * (n - i) // n
        comp_size = comp_size * (n - i) // (i + 1)
        n_components //= k
    assert remaining == 0
    return total


def _few_low_family(n: int, k: int, low: range, high: range, most: int) -> Family:
    """Every length-n sequence with at most `most` entries from `low` and the
    rest from `high`, built by placing the low entries and filling the rest.

    Refused first when its size, the sum over c of C(n, c) |low|^c
    |high|^(n-c), is over member_cap(n); each power is capped, and the sum
    stops once it passes the cap.
    """
    # With no high values, only the all-low sequences exist.
    spreads = range(0 if high else n, min(most, n) + 1)
    cap = member_cap(n)
    size = 0
    for c in spreads:
        size += comb(n, c) * capped_pow(len(low), c, cap) * capped_pow(len(high), n - c, cap)
        if size > cap:
            break
    check_family_size(size, n)

    def members():
        for c in spreads:
            for where in itertools.combinations(range(n), c):
                for lows in itertools.product(low, repeat=c):
                    for highs in itertools.product(high, repeat=n - c):
                        x = list(highs)
                        for i, e in zip(where, lows):  # ascending, so each lands at i
                            x.insert(i, e)
                        yield tuple(x)

    return Family(n, k, frozenset(members()))


def family_l_leq(n: int, k: int, r_del: int, s: int) -> Family:
    """All sequences with at most s coordinates of value <= r_del: the levels
    i <= s of `level_size`."""
    check_shape(n, k)
    if not (0 <= s <= n):
        raise ValueError(f"level bound {s} not in [0, {n}]")
    check_radius(r_del, k)
    return _few_low_family(n, k, range(r_del + 1), range(r_del + 1, k + 1), s)


def family_b_rt(n: int, k: int, r: int, t: int) -> Family:
    """All sequences with at most r zeros and all coordinates in {0,...,t}."""
    check_shape(n, k)
    if not (0 <= r <= k and 0 <= t <= k):
        raise ValueError(f"need 0 <= r, t <= {k}, got r={r}, t={t}")
    return _few_low_family(n, k, range(1), range(1, t + 1), r)


def family_a_t(n: int, k: int, t: int) -> Family:
    """The cube {0,...,t-1}^n inside {0,...,k}^n."""
    check_shape(n, k)
    if not (1 <= t <= k):
        raise ValueError(f"need 1 <= t <= {k}, got t={t}")
    check_family_size(capped_pow(t, n, member_cap(n)), n)
    return Family(n, k, frozenset(itertools.product(range(t), repeat=n)))


def canonical_family(kind: str, **params) -> Family:
    """Dispatch on kind: 'lleq' (level union), 'brt' (bounded zeros and values),
    'at' (sub-cube)."""
    builders = {"lleq": family_l_leq, "brt": family_b_rt, "at": family_a_t}
    if kind not in builders:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {sorted(builders)}")
    return builders[kind](**params)


def level_size(n: int, k: int, r_del: int, i: int) -> int:
    """Size of the level {x : exactly i coordinates have value <= r_del}."""
    return comb(n, i) * (r_del + 1) ** i * (k - r_del) ** (n - i)


def l_leq_shadow_size(n: int, k: int, r_del: int, s: int) -> int:
    """Closed form for |delta_r L_{<=s}(n)|: the union of the image levels."""
    return sum(
        comb(n - 1, i - 1) * (r_del + 1) ** (i - 1) * (k - r_del) ** (n - i)
        for i in range(1, s + 1)
    )


def prop10_lower_bound(a: Family, r_del: int) -> Fraction:
    """The exact rational lower bound sum(s * |A_s|) / (n * (r_del + 1)) on
    |delta_r A|, where A_s collects members with exactly s low coordinates."""
    if a.n < 1:
        raise ValueError("bound needs n >= 1")
    check_radius(r_del, a.k)
    weighted = sum(low_count(x, r_del) for x in a.members)
    return Fraction(weighted, a.n * (r_del + 1))
