import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from delshadow import orders
from delshadow.orders import (
    c_key,
    colex_combinations,
    colex_key,
    initial_segment_leq,
    iter_leq,
    iter_simplicial,
    label_rank,
    level_labels,
    leq_key,
    simplicial_initial_segment,
    simplicial_key,
)
from delshadow.seqcore import Family, member_cap, place_label, zero_count


class TestColex:
    def test_examples(self):
        assert colex_key({1, 2}) < colex_key({1, 3})
        assert colex_key({2, 3}) < colex_key({1, 4})
        assert not colex_key({1, 3}) < colex_key({1, 3})

    def test_full_colex_order_on_4_choose_2(self):
        got = list(colex_combinations(4, 2))
        assert got == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]

    def test_initial_positions_examples(self):
        assert list(itertools.islice(colex_combinations(4, 2), 3)) == [(1, 2), (1, 3), (2, 3)]
        assert len(list(colex_combinations(5, 2))) == 10
        assert list(colex_combinations(4, 0)) == [()]

    def test_streaming_matches_sorting(self):
        for n in range(7):
            for r in range(n + 1):
                streamed = list(colex_combinations(n, r))
                sorted_all = sorted(
                    itertools.combinations(range(1, n + 1), r),
                    key=lambda s: tuple(sorted(s, reverse=True)),
                )
                assert streamed == sorted_all

    def test_more_elements_than_positions_gives_nothing(self):
        for n in range(4):
            assert list(colex_combinations(n, n + 1)) == []
            assert list(colex_combinations(n, n + 3)) == []

    def test_long_sets_step_without_recursion(self):
        n = 1100
        sets = list(colex_combinations(n, n - 1))
        assert len(sets) == n
        assert sets[0] == tuple(range(1, n))
        assert sets[-1] == tuple(range(2, n + 1))


class TestSimplicial:
    def test_examples(self):
        assert simplicial_key((0, 0, 1)) < simplicial_key((0, 1, 1))
        assert simplicial_key((1, 0)) < simplicial_key((0, 1))
        assert simplicial_key((1, 0, 1)) < simplicial_key((0, 1, 1))

    def test_initial_segment(self):
        assert simplicial_initial_segment(2, 2).members == {(0, 0), (1, 0)}

    def test_negative_length_is_named_before_the_size(self):
        with pytest.raises(ValueError, match=r"^length n must be >= 0, got -1$"):
            simplicial_initial_segment(-1, 1)
        with pytest.raises(ValueError, match=r"^size 5 not in \[0, 4\]$"):
            simplicial_initial_segment(2, 5)

    def test_too_large_a_family_is_refused_before_streaming(self, monkeypatch):
        # The order is streamed, so the refusal bounds the family's m * n
        # entries, not the 2^n of the universe.
        assert simplicial_initial_segment(40, 1).members == {(0,) * 40}
        assert len(simplicial_initial_segment(19, 3)) == 3

        def work_started(n):
            raise AssertionError("work started")

        monkeypatch.setattr(orders, "iter_simplicial", work_started)
        for n, m in ((10 ** 8, 1), (40, member_cap(40) + 1)):
            with pytest.raises(ValueError, match=f"^family infeasible: .* length {n} "):
                simplicial_initial_segment(n, m)
        with pytest.raises(AssertionError, match="work started"):
            simplicial_initial_segment(40, member_cap(40))

    def test_stream_follows_the_key(self):
        for n in range(6):
            universe = itertools.product((0, 1), repeat=n)
            assert list(iter_simplicial(n)) == sorted(universe, key=simplicial_key)


class TestCOrder:
    def test_examples(self):
        assert c_key((1, 2), 2) < c_key((2, 1), 2)
        assert c_key((1, 2), 2) < c_key((1, 1), 2)

    def test_full_order_on_two_squared(self):
        words = list(itertools.product((1, 2), repeat=2))
        ordered = sorted(words, key=lambda u: c_key(u, 2))
        assert ordered == [(2, 2), (1, 2), (2, 1), (1, 1)]


class TestLeq:
    def test_examples(self):
        assert leq_key((1, 1), 1) < leq_key((0, 1), 1)
        assert leq_key((0, 1), 1) < leq_key((1, 0), 1)

    def test_full_order_on_01_squared(self):
        seqs = list(itertools.product((0, 1), repeat=2))
        ordered = sorted(seqs, key=lambda x: leq_key(x, 1))
        assert ordered == [(1, 1), (0, 1), (1, 0), (0, 0)]


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("k", range(1, 4))
class TestStrictOrderLaws:
    def test_totality_and_antisymmetry(self, n, k):
        keys = [leq_key(x, k) for x in itertools.product(range(k + 1), repeat=n)]
        for x, y in itertools.combinations(keys, 2):
            assert (x < y) != (y < x)
        for x in keys:
            assert not x < x

    def test_transitivity(self, n, k):
        if (k + 1) ** n > 27:
            pytest.skip("triple sweep kept to universes of <= 27 elements")
        keys = [leq_key(x, k) for x in itertools.product(range(k + 1), repeat=n)]
        for x, y, z in itertools.permutations(keys, 3):
            if x < y < z:
                assert x < z


class TestInitialSegmentLeq:
    def test_examples(self):
        assert initial_segment_leq(2, 1, 3).members == {(1, 1), (0, 1), (1, 0)}
        assert initial_segment_leq(2, 2, 4).members == {(2, 2), (1, 2), (2, 1), (1, 1)}
        assert len(initial_segment_leq(3, 2, 0)) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            initial_segment_leq(2, 1, 5)

    @pytest.mark.parametrize(
        "n,k", [(2, 1), (4, 1), (6, 1), (9, 1), (3, 2), (6, 2), (2, 3), (4, 3)]
    )
    def test_streaming_equals_sorting_the_universe(self, n, k):
        universe = sorted(
            itertools.product(range(k + 1), repeat=n), key=lambda x: leq_key(x, k)
        )
        assert list(iter_leq(n, k)) == universe

    @given(st.integers(1, 4), st.integers(1, 3), st.data())
    def test_prefix_property(self, n, k, data):
        m = data.draw(st.integers(0, (k + 1) ** n - 1))
        small = initial_segment_leq(n, k, m)
        big = initial_segment_leq(n, k, m + 1)
        assert small.members < big.members

    @given(st.integers(0, 6), st.integers(1, 4), st.data())
    def test_iterates_in_order_without_a_sort(self, n, k, data):
        m = data.draw(st.integers(0, min((k + 1) ** n, 3000)))
        seg = initial_segment_leq(n, k, m)
        assert list(seg) == sorted(seg.members, key=lambda x: leq_key(x, k))
        assert seg == Family.of(n, k, seg.members)
        assert hash(seg) == hash(Family.of(n, k, seg.members))


def _descending(s) -> tuple[int, ...]:
    """Colex by its definition: sets compared as descending-sorted tuples."""
    return tuple(sorted(s, reverse=True))


def _c_definition(u, k):
    """<=_c by its definition: the colex keys of R_1, ..., R_k in turn."""
    return tuple(
        _descending(i for i, e in enumerate(u, start=1) if e == v) for v in range(1, k + 1)
    )


class TestGeneratedOrder:
    """The generated orders equal sorting by the definitions, restated here."""

    def test_colex_key_orders_sets_of_mixed_sizes(self):
        sets = [frozenset(c) for r in range(7) for c in itertools.combinations(range(1, 7), r)]
        assert sorted(sets, key=colex_key) == sorted(sets, key=_descending)

    @given(st.frozensets(st.integers(1, 70)), st.frozensets(st.integers(1, 70)))
    def test_colex_key_compares_like_the_definition(self, s, t):
        assert (colex_key(s) < colex_key(t)) == (_descending(s) < _descending(t))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_levels_match_sorting_by_the_definition(self, k):
        for n in range(8):
            for zc in range(n + 1):
                if k ** (n - zc) > 5000:
                    continue
                words = itertools.product(range(1, k + 1), repeat=n - zc)
                expected = sorted(words, key=lambda u: _c_definition(u, k))
                assert list(level_labels(n, k, zc)) == expected

    @pytest.mark.parametrize("n,k", [(5, 2), (4, 3), (3, 4), (2, 6)])
    def test_iter_leq_matches_sorting_by_the_definition(self, n, k):
        def key(x):
            zeros = [i for i, e in enumerate(x, start=1) if e == 0]
            return len(zeros), _c_definition(tuple(e for e in x if e), k), _descending(zeros)

        universe = itertools.product(range(k + 1), repeat=n)
        assert list(iter_leq(n, k)) == sorted(universe, key=key)

    @given(st.integers(0, 7), st.integers(1, 5), st.data())
    def test_levels_ascend_by_the_definition(self, n, k, data):
        zc = data.draw(st.integers(max(0, n - 5), n))
        labels = list(level_labels(n, k, zc))
        keys = [_c_definition(u, k) for u in labels]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(labels) == k ** (n - zc)
        assert all(len(u) == n - zc and set(u) <= set(range(1, k + 1)) for u in labels)

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_label_below_one(self, k):
        for n in range(4):
            for zc in range(n + 1):
                assert list(level_labels(n, k, zc)) == ([()] if zc == n else [])

    def test_long_levels_stream(self):
        assert next(level_labels(30, 3, 0)) == (3,) * 30
        assert list(itertools.islice(level_labels(3, 5000, 0), 3)) == [
            (5000, 5000, 5000), (4999, 5000, 5000), (5000, 4999, 5000)
        ]


def _rank_by_definition(label, k) -> int:
    """The <=_c index of `label` summed bit by bit: for each value i < k and
    each position p of the positions left that holds i, the labels that agree
    above p and leave p free number (k-i)^(1 + free positions above p) *
    (k-i+1)^p."""
    index, free = 0, list(label)
    for value in range(1, k):
        x = k - value
        for p, e in enumerate(free):
            if e == value:
                above = sum(1 for f in free[p + 1:] if f != value)
                index += x ** (1 + above) * (x + 1) ** p
        free = [e for e in free if e != value]
    return index


class TestLabelRank:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_rank_follows_the_levels(self, k):
        for n in range(8):
            for zc in range(n + 1):
                for index, label in enumerate(level_labels(n, k, zc)):
                    assert label_rank(label, k) == index

    @pytest.mark.parametrize("k", range(1, 5))
    def test_streams_from_any_index_follow_the_levels(self, k):
        # A stream that starts later is level_labels cut at the rank of its first label.
        for n in range(5):
            for zc in range(n + 1):
                words = itertools.product(range(1, k + 1), repeat=n - zc)
                expected = sorted(words, key=lambda u: _c_definition(u, k))
                for label in expected:
                    start = label_rank(label, k)
                    stream = itertools.islice(level_labels(n, k, zc), start, None)
                    assert list(stream) == expected[start:]
                    assert expected[start] == label

    @given(st.integers(1, 6), st.integers(0, 400), st.data())
    def test_long_labels_rank_by_the_definition(self, k, length, data):
        label = tuple(data.draw(st.lists(st.integers(1, k), min_size=length, max_size=length)))
        assert label_rank(label, k) == _rank_by_definition(label, k)

    def test_first_labels_of_huge_levels(self):
        assert next(level_labels(10 ** 6, 3, 0)) == (3,) * 10 ** 6
        assert next(level_labels(10 ** 6, 1, 0)) == (1,) * 10 ** 6
        first = list(itertools.islice(level_labels(40, 5000, 0), 3))
        assert first[2] == (5000,) + (4999,) + (5000,) * 38
        assert [label_rank(label, 5000) for label in first] == [0, 1, 2]


def _mask(positions) -> int:
    return sum(1 << i for i in positions)


def _masks_c_key(u, k):
    """<=_c as the tuple of colex masks of R_1, ..., R_k (1-indexed positions)."""
    return tuple(_mask(i for i, e in enumerate(u, start=1) if e == v) for v in range(1, k + 1))


def _masks_leq_key(x, k):
    """<= as (zero count, tuple-of-masks key of the reduced word, zero mask)."""
    zeros = [i for i, e in enumerate(x, start=1) if e == 0]
    return len(zeros), _masks_c_key(tuple(e for e in x if e), k), _mask(zeros)


def _same_order(words, key, reference):
    """key orders `words` like `reference` does, and tells them all apart."""
    keys = [key(w) for w in words]
    assert len(set(keys)) == len(words)
    assert sorted(words, key=key) == sorted(words, key=reference)


class TestIntegerKeys:
    """c_key and leq_key are single integers built in one pass; they order
    words like the tuple-of-masks keys, restated here."""

    @pytest.mark.parametrize("k", range(1, 5))
    def test_every_small_word(self, k):
        for n in range(7):  # universes of at most 5^6 = 15 625 words
            words = list(itertools.product(range(k + 1), repeat=n))
            _same_order(words, lambda x: leq_key(x, k), lambda x: _masks_leq_key(x, k))
            free = [u for u in words if 0 not in u]
            _same_order(free, lambda u: c_key(u, k), lambda u: _masks_c_key(u, k))

    @given(st.integers(1, 10**4), st.integers(0, 5), st.data())
    def test_pairs_at_large_k(self, k, n, data):
        entry = st.one_of(st.integers(0, k), st.sampled_from(sorted({0, 1, k // 2, k - 1, k})))
        x, y = (tuple(data.draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(2))
        assert (leq_key(x, k) < leq_key(y, k)) == (_masks_leq_key(x, k) < _masks_leq_key(y, k))
        assert (leq_key(x, k) == leq_key(y, k)) == (x == y)
        u, v = (tuple(e for e in w if e) for w in (x, y))
        if len(u) == len(v):
            assert (c_key(u, k) < c_key(v, k)) == (_masks_c_key(u, k) < _masks_c_key(v, k))

    def test_zeros_do_not_move_the_c_part(self):
        for x in itertools.product(range(4), repeat=4):
            assert leq_key(x, 3)[1] == c_key(tuple(e for e in x if e), 3)


class TestReversalIsomorphism:
    """Appending the high levels to a colex piece of one level and reversing
    every sequence lands on a simplicial initial segment."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_reversed_construction_is_simplicial_initial(self, n):
        universe = list(iter_simplicial(n))
        for r in range(n + 1):
            high = [
                x
                for x in itertools.product((0, 1), repeat=n)
                if zero_count(x) > r
            ]
            for m in range(comb(n, r) + 1):
                piece = [
                    place_label(tuple([1] * (n - r)), zeros)
                    for zeros in itertools.islice(colex_combinations(n, r), m)
                ]
                c2 = set(high) | set(piece)
                reversed_c2 = {tuple(reversed(x)) for x in c2}
                assert reversed_c2 == set(universe[: len(c2)])
