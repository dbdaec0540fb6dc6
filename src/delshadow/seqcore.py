"""Sequences over {0,...,k}, the (n, k) and radius rules, families of sequences
and the placing of a reduced word on a set of zero positions.

A sequence is a plain tuple of small integers; positions are 1-indexed
throughout (position i of x is x[i-1]).  The empty sequence () is a valid
value of length 0, so deletion shadows of length-1 families are total.
"""
from __future__ import annotations

from dataclasses import dataclass, field

Seq = tuple[int, ...]


def reduced(x: Seq) -> Seq:
    """The reduced word of x: all zero coordinates removed, order preserved."""
    return tuple(filter(None, x))


def positions_of(x: Seq, value: int) -> frozenset[int]:
    """R_value(x): the 1-indexed positions of x that hold `value`."""
    return frozenset(i for i, e in enumerate(x, start=1) if e == value)


def zero_count(x: Seq) -> int:
    return sum(1 for e in x if e == 0)


def rank(x: Seq) -> int:
    """Sum of the entries of x."""
    return sum(x)


def low_count(x: Seq, r: int) -> int:
    """Number of coordinates of x with value <= r."""
    return sum(1 for e in x if e <= r)


def check_shape(n: int, k: int) -> None:
    """Refuse k < 1, then n < 0: the rule on the (n, k) of every {0,...,k}^n."""
    if k < 1:
        raise ValueError(f"alphabet ceiling k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"length n must be >= 0, got {n}")


def check_radius(r_del: int, k: int) -> None:
    """Refuse a deletion radius outside [0, k]."""
    if not (0 <= r_del <= k):
        raise ValueError(f"deletion radius {r_del} not in [0, {k}]")


def capped_pow(base: int, exp: int, cap: int) -> int:
    """min(base ** exp, cap + 1) for exp >= 0.  A power of base > 1 that is
    plainly above cap by bit length is never computed, so a huge exponent
    costs nothing."""
    if base > 1 and exp * (base.bit_length() - 1) > cap.bit_length():
        return cap + 1
    return min(base ** exp, cap + 1)


def check_size(m: int, base: int, exp: int) -> None:
    """Refuse a size m outside [0, base ** exp], such as a family size in a
    universe of (k+1)^n sequences.  The bound is written out only when it has
    at most 4096 bits."""
    if m < 0 or m > capped_pow(base, exp, m):
        shown = capped_pow(base, exp, 1 << 4096)
        if shown > 1 << 4096:
            shown = f"{base}^{exp}"
        raise ValueError(f"size {m} not in [0, {shown}]")


# A family of M members of length n holds M * n entries.  The builders refuse
# more than this before any work.  `family --kind at --n 12 --k 3 --t 3`, 6.4 M
# entries, takes 6.6 s and 198 MB (2 vCPUs, Python 3.11); A_2 at n = 18, 4.7 M
# entries, is the largest family `check_a_t` builds, and `initseg --n 1000000
# --k 1 --size 1` needs 10^6.
FAMILY_ENTRY_LIMIT = 1 << 23


def member_cap(n: int) -> int:
    """The most members of length n a family may have: FAMILY_ENTRY_LIMIT
    entries in all."""
    return FAMILY_ENTRY_LIMIT // max(n, 1)


def check_family_size(members: int, n: int) -> None:
    """Refuse a family of `members` members of length n, or of more than
    member_cap(n) when `members` is a capped count, over FAMILY_ENTRY_LIMIT
    entries."""
    if members > member_cap(n):
        raise ValueError(
            f"family infeasible: its members of length {n} hold over "
            f"{FAMILY_ENTRY_LIMIT} entries"
        )


@dataclass(frozen=True)
class Family:
    """A finite set of equal-length sequences over a common alphabet {0,...,k}.

    `Family.of` validates its input, for callers outside the package; the plain
    constructor trusts its caller, as every builder inside does after its checks.
    `leq_order`, when set, holds the members in <= order, so iterating needs no
    sort; it takes no part in equality or hashing.
    """

    n: int
    k: int
    members: frozenset[Seq]
    leq_order: tuple[Seq, ...] | None = field(default=None, compare=False, repr=False)

    @classmethod
    def of(cls, n: int, k: int, seqs) -> "Family":
        members = frozenset(tuple(s) for s in seqs)
        check_shape(n, k)
        for s in members:
            if len(s) != n:
                raise ValueError(f"member {s} has length {len(s)}, expected {n}")
            for i, e in enumerate(s, start=1):
                if not (0 <= e <= k):
                    raise ValueError(f"entry {e} at position {i} not in [0, {k}]")
        return cls(n=n, k=k, members=members)

    @classmethod
    def in_leq_order(cls, n: int, k: int, seqs) -> "Family":
        """The family of `seqs`, trusted to be distinct and in <= order, as the
        builders of initial segments produce them."""
        ordered = tuple(seqs)
        return cls(n, k, frozenset(ordered), ordered)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x) -> bool:
        return tuple(x) in self.members

    def __iter__(self):
        # Iteration follows the <= order for reproducible output.
        if self.leq_order is not None:
            return iter(self.leq_order)
        from .orders import leq_key

        return iter(sorted(self.members, key=lambda s: leq_key(s, self.k)))


def place_label(label: Seq, zeros: tuple[int, ...]) -> Seq:
    """The sequence of length len(label) + len(zeros) with zeros at the
    ascending 1-indexed positions `zeros` and `label`, in order, elsewhere."""
    out, j = [], 0
    for i, z in enumerate(zeros):
        # The z - 1 positions before z hold i zeros and label[:z - 1 - i].
        out += label[j:z - 1 - i]
        out.append(0)
        j = z - 1 - i
    out += label[j:]
    return tuple(out)
