"""Deletion shadows: delete one coordinate with value <= r_del.

r_del = 0 deletes zeros only (the delta shadow); r_del = k allows deleting
any coordinate (the full coordinate-deletion shadow).
"""
from __future__ import annotations

from .seqcore import Family, Seq, check_radius


def seq_children(x: Seq, r_del: int) -> set[Seq]:
    """All sequences obtained from x by deleting one coordinate with value <= r_del.
    Deletions inside one run of equal entries give one child, built once."""
    return {x[:i] + x[i + 1:] for i, e in enumerate(x)
            if e <= r_del and (i == 0 or x[i - 1] != e)}


def delta_r(a: Family, r_del: int) -> Family:
    """The radius-r_del deletion shadow of a family."""
    if a.n == 0:
        raise ValueError("shadow of a length-0 family is undefined (nothing to delete)")
    check_radius(r_del, a.k)
    out: set[Seq] = set()
    for x in a.members:
        out |= seq_children(x, r_del)
    return Family(a.n - 1, a.k, frozenset(out))


def delta(a: Family) -> Family:
    """Delete one zero coordinate (radius 0)."""
    return delta_r(a, 0)


def full_deletion(a: Family) -> Family:
    """Delete any one coordinate (radius k)."""
    return delta_r(a, a.k)


def deletion_multidegree(x: Seq, y: Seq, r_del: int) -> int:
    """Number of positions of x with value <= r_del whose deletion yields y."""
    if len(x) != len(y) + 1:
        raise ValueError(f"len(x)={len(x)} must be len(y)+1={len(y) + 1}")
    return sum(
        1
        for i, e in enumerate(x)
        if e <= r_del and x[:i] + x[i + 1:] == y
    )
