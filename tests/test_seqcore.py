import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from delshadow.seqcore import (
    FAMILY_ENTRY_LIMIT,
    Family,
    capped_pow,
    check_family_size,
    check_size,
    low_count,
    member_cap,
    place_label,
    positions_of,
    rank,
    reduced,
    zero_count,
)
from delshadow.orders import colex_combinations, level_labels
from delshadow.shadow import seq_children


def seq_and_k(max_n=6, max_k=3):
    return st.integers(1, max_k).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(0, k), max_size=max_n).map(tuple), st.just(k)
        )
    )


class TestStats:
    def test_sequence_00121(self):
        x = (0, 0, 1, 2, 1)
        assert positions_of(x, 0) == frozenset({1, 2})
        assert len(positions_of(x, 0)) == 2
        assert rank(x) == 4
        assert low_count(x, 1) == 4

    def test_zero_free_word(self):
        x = (1, 1, 1)
        assert zero_count(x) == 0
        assert rank(x) == 3
        assert positions_of(x, 1) == frozenset({1, 2, 3})

    def test_all_zero_word(self):
        x = (0, 0, 0)
        assert zero_count(x) == 3
        assert rank(x) == 0
        for r in range(4):
            assert low_count(x, r) == 3

    @given(seq_and_k())
    def test_value_counts_partition_and_rank(self, xk):
        x, k = xk
        assert sum(len(positions_of(x, v)) for v in range(k + 1)) == len(x)
        assert rank(x) == sum(v * len(positions_of(x, v)) for v in range(k + 1))
        assert low_count(x, k) == len(x)

    def test_exhaustive_consistency_small(self):
        for n in range(7):
            for k in range(1, 4):
                for x in itertools.product(range(k + 1), repeat=n):
                    assert sum(len(positions_of(x, v)) for v in range(k + 1)) == n
                    assert rank(x) == sum(v * len(positions_of(x, v)) for v in range(k + 1))
                if n > 2:
                    break  # k sweep only needed once the alphabet matters


class TestReduced:
    @pytest.mark.parametrize(
        "x,expected",
        [((0, 0, 1, 2, 1), (1, 2, 1)), ((1, 1, 1), (1, 1, 1)), ((0, 0, 0), ())],
    )
    def test_examples(self, x, expected):
        assert reduced(x) == expected

    @given(seq_and_k())
    def test_deleting_a_zero_keeps_the_reduced_word(self, xk):
        x, k = xk
        for y in seq_children(x, 0):
            assert reduced(y) == reduced(x)


class TestFamily:
    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            Family.of(2, 0, [(0, 0)])

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            Family.of(2, 1, [(0, 2)])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Family.of(2, 1, [(0, 1, 1)])

    def test_duplicates_collapse(self):
        a = Family.of(2, 1, [(0, 1), (0, 1)])
        assert len(a) == 1

    def test_empty_sequence_is_first_class(self):
        a = Family.of(0, 2, [()])
        assert len(a) == 1 and () in a

    def test_iteration_is_in_leq_order(self):
        a = Family.of(2, 1, [(0, 0), (1, 1), (1, 0), (0, 1)])
        assert list(a) == [(1, 1), (0, 1), (1, 0), (0, 0)]


class TestSizeLimits:
    def test_capped_pow_is_the_capped_power(self):
        for base, exp, cap in itertools.product(range(6), range(12), range(0, 300, 7)):
            assert capped_pow(base, exp, cap) == min(base ** exp, cap + 1)

    def test_capped_pow_never_computes_a_huge_power(self):
        # 3^(10^8) takes minutes; 0 and 1 to any power are cheap.
        assert capped_pow(3, 10 ** 8, 10 ** 6) == 10 ** 6 + 1
        assert capped_pow(10 ** 9, 10 ** 8, 0) == 1
        assert (capped_pow(1, 10 ** 18, 5), capped_pow(0, 10 ** 18, 5)) == (1, 0)

    def test_check_size(self):
        check_size(9, 3, 2)
        check_size(0, 3, 10 ** 8)
        check_size(1, 3, 10 ** 8)
        with pytest.raises(ValueError, match=r"^size 10 not in \[0, 9\]$"):
            check_size(10, 3, 2)
        with pytest.raises(ValueError, match=r"^size -1 not in \[0, 3\^100000000\]$"):
            check_size(-1, 3, 10 ** 8)

    @pytest.mark.parametrize("n", [0, 1, 3, 40, 10 ** 8])
    def test_entry_limit(self, n):
        assert member_cap(n) == FAMILY_ENTRY_LIMIT // max(n, 1)
        check_family_size(member_cap(n), n)
        with pytest.raises(ValueError, match=f"^family infeasible: its members of length {n} "
                                             f"hold over {FAMILY_ENTRY_LIMIT} entries$"):
            check_family_size(member_cap(n) + 1, n)


def component_members(label, n):
    """The members of label's component at length n: label placed on every
    zero-position set, in colex order."""
    return [place_label(label, zeros) for zeros in colex_combinations(n, n - len(label))]


class TestComponents:
    def test_two_components_at_n2_k2(self):
        by_label = {u: set(component_members(u, 2)) for u in level_labels(2, 2, 1)}
        assert by_label == {
            (2,): {(0, 2), (2, 0)},
            (1,): {(0, 1), (1, 0)},
        }

    def test_zero_free_components_are_singletons(self):
        labels = list(level_labels(3, 2, 0))
        assert len(labels) == 8
        assert all(len(component_members(u, 3)) == 1 for u in labels)

    def test_component_of_1001(self):
        x = (1, 0, 0, 1)
        assert reduced(x) == (1, 1)
        members = component_members(reduced(x), len(x))
        assert len(set(members)) == len(members) == comb(4, 2)
        assert all(reduced(x) == (1, 1) for x in members)

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (3, 3)])
    def test_level_partition(self, n, k):
        for i in range(n + 1):
            labels = list(level_labels(n, k, i))
            assert len(labels) == k ** (n - i)
            seen = set()
            for u in labels:
                mem = set(component_members(u, n))
                assert len(mem) == comb(n, i)
                assert not (seen & mem)
                seen |= mem
            assert len(seen) == comb(n, i) * k ** (n - i)

    def test_generalized_level_sizes(self):
        # levels counted by the number of coordinates <= r
        for n, k, r in [(3, 2, 1), (4, 3, 1), (3, 3, 2)]:
            for i in range(n + 1):
                count = sum(
                    1
                    for x in itertools.product(range(k + 1), repeat=n)
                    if low_count(x, r) == i
                )
                assert count == comb(n, i) * (r + 1) ** i * (k - r) ** (n - i)


def test_place_label_roundtrip():
    x = place_label((1, 2, 1), (1, 2))
    assert x == (0, 0, 1, 2, 1)
    assert positions_of(x, 0) == frozenset({1, 2})


@given(seq_and_k())
def test_place_label_inverts_reduced_and_zero_positions(xk):
    x, k = xk
    assert place_label(reduced(x), tuple(sorted(positions_of(x, 0)))) == x
