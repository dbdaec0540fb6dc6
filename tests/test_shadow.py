import itertools

import pytest
from hypothesis import given, strategies as st

from delshadow.seqcore import Family, low_count, reduced
from delshadow.shadow import delta, delta_r, deletion_multidegree, full_deletion, seq_children


def family_strategy(max_n=4, max_k=3, min_n=1):
    def build(nk):
        n, k = nk
        universe = list(itertools.product(range(k + 1), repeat=n))
        return st.sets(st.sampled_from(universe), max_size=len(universe)).map(
            lambda s: Family.of(n, k, s)
        )

    return st.tuples(st.integers(min_n, max_n), st.integers(1, max_k)).flatmap(build)


class TestWorkedExamples:
    def test_delta_keeps_the_reduced_word(self):
        a = Family.of(5, 1, [(0, 0, 0, 1, 1), (0, 0, 1, 0, 1)])
        assert delta(a).members == {(0, 0, 1, 1), (0, 1, 0, 1)}

    def test_delta_of_zero_free_family_is_empty(self):
        a = Family.of(3, 3, [(1, 1, 2), (1, 1, 3), (1, 2, 3)])
        assert delta(a).members == set()

    def test_full_deletion(self):
        a = Family.of(3, 2, [(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 2, 1)])
        assert full_deletion(a).members == {
            (0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (2, 1),
        }

    def test_radius_one_shadow_of_00121(self):
        a = Family.of(5, 2, [(0, 0, 1, 2, 1)])
        assert delta_r(a, 1).members == {(0, 1, 2, 1), (0, 0, 2, 1), (0, 0, 1, 2)}


class TestMultidegree:
    def test_examples(self):
        assert deletion_multidegree((0, 0, 1, 2, 1), (0, 1, 2, 1), 1) == 2
        assert deletion_multidegree((0, 0, 1, 2, 1), (0, 0, 2, 1), 1) == 1
        assert deletion_multidegree((0, 0, 1, 2, 1), (0, 0, 1, 2), 1) == 1
        assert deletion_multidegree((1, 1, 1), (1, 1), 0) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            deletion_multidegree((1, 1), (1, 1), 0)

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("k", range(1, 4))
    def test_degree_identity(self, n, k):
        for r in range(k + 1):
            for y in itertools.product(range(k + 1), repeat=n - 1):
                total = sum(
                    deletion_multidegree(x, y, r)
                    for x in itertools.product(range(k + 1), repeat=n)
                )
                assert total == n * (r + 1)


class TestEdgeCases:
    def test_empty_family_has_empty_shadow(self):
        assert len(delta(Family.of(3, 2, []))) == 0

    def test_length_zero_family_cannot_be_deleted(self):
        with pytest.raises(ValueError):
            delta(Family.of(0, 1, [()]))

    def test_length_one_shadow_is_the_empty_sequence(self):
        assert delta(Family.of(1, 1, [(0,)])).members == {()}

    def test_radius_out_of_range(self):
        with pytest.raises(ValueError):
            delta_r(Family.of(2, 1, [(0, 1)]), 2)


class TestProperties:
    def test_children_equal_one_deletion_per_position(self):
        for n in range(7):
            for k in range(1, 4):
                for x in itertools.product(range(k + 1), repeat=n):
                    for r in range(k + 1):
                        every = {x[:i] + x[i + 1:] for i, e in enumerate(x) if e <= r}
                        assert seq_children(x, r) == every

    @given(family_strategy())
    def test_level_mapping(self, a):
        for r in range(a.k + 1):
            for x in a.members:
                for y in seq_children(x, r):
                    assert low_count(y, r) == low_count(x, r) - 1

    @given(family_strategy())
    def test_reduced_word_preserved_at_radius_zero(self, a):
        for y in delta(a).members:
            assert any(reduced(y) == reduced(x) for x in a.members)

    @given(family_strategy(), family_strategy())
    def test_monotone_and_union(self, a, b):
        if (a.n, a.k) != (b.n, b.k):
            return
        union = Family.of(a.n, a.k, a.members | b.members)
        for r in range(a.k + 1):
            da, db, du = delta_r(a, r), delta_r(b, r), delta_r(union, r)
            assert da.members <= du.members
            assert du.members == da.members | db.members

    @given(family_strategy())
    def test_nesting_in_the_radius(self, a):
        for r in range(a.k):
            assert delta_r(a, r).members <= delta_r(a, r + 1).members
