import io
import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from delshadow import extremal, orders, seqcore
from delshadow.extremal import (
    canonical_family,
    canonicalize,
    canonicalize_with_potentials,
    co_initial_ones_count,
    compress,
    family_a_t,
    family_b_rt,
    family_l_leq,
    l_leq_shadow_size,
    level_size,
    min_delta_shadow_size,
    ones_count_colex,
    prop10_lower_bound,
)
from delshadow.orders import (
    c_key,
    colex_combinations,
    initial_segment_leq,
    iter_leq,
    level_labels,
    simplicial_initial_segment,
)
from delshadow.famio import read_family, write_family
from delshadow.seqcore import Family, place_label
from delshadow.shadow import delta, delta_r, seq_children


def _ones(sets) -> int:
    """How many of the sets contain the element 1."""
    return sum(1 in s for s in sets)


def _complements(n: int, sets) -> set[frozenset[int]]:
    """Each set complemented within [n]."""
    ground = frozenset(range(1, n + 1))
    return {ground - frozenset(s) for s in sets}


class TestSetSystems:
    def test_ones_count_examples(self):
        first = list(itertools.islice(colex_combinations(4, 2), 3))
        assert first == [(1, 2), (1, 3), (2, 3)]
        assert _ones(first) == 2 == ones_count_colex(4, 2, 3)
        assert _ones(colex_combinations(5, 2)) == comb(4, 1)

    def test_complement_examples(self):
        first = itertools.islice(colex_combinations(3, 1), 2)
        assert _complements(3, first) == {frozenset({2, 3}), frozenset({1, 3})}

    def test_complement_duality(self):
        for n in range(1, 6):
            for r in range(n + 1):
                a = list(colex_combinations(n, r))[::2]
                assert len(a) == _ones(a) + _ones(_complements(n, a))

    def test_complement_of_final_segment_is_initial(self):
        for n in range(1, 7):
            for r in range(n + 1):
                layer = list(colex_combinations(n, r))
                for m in range(len(layer) + 1):
                    final = layer[m:]
                    expected = itertools.islice(colex_combinations(n, n - r), len(final))
                    assert _complements(n, final) == {frozenset(s) for s in expected}


class TestOnesCountColex:
    def test_examples(self):
        assert ones_count_colex(4, 2, 3) == 2
        assert ones_count_colex(5, 2, comb(5, 2)) == comb(4, 1)
        assert ones_count_colex(6, 3, 0) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ones_count_colex(4, 2, 7)

    @pytest.mark.parametrize("n,r", [(6, 3), (40, 17), (1100, 1050), (2500, 1200)])
    def test_identities_without_a_cascade(self, n, r):
        # The first C(a, r) sets are the r-subsets of [a], C(a-1, r-1) of them
        # with 1.  The last set of the layer, {n-r+1, ..., n}, misses 1 (r < n).
        for a in (r, r + 1, (r + n) // 2, n):
            assert ones_count_colex(n, r, comb(a, r)) == comb(a - 1, r - 1)
        assert ones_count_colex(n, r, comb(n, r) - 1) == comb(n - 1, r - 1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_recursion_matches_enumeration(self, n):
        for r in range(1, n + 1):
            prefix_ones = 0
            for m, s in enumerate(colex_combinations(n, r), start=1):
                prefix_ones += 1 in s
                assert ones_count_colex(n, r, m) == prefix_ones


class TestSegments:
    # A colex segment is the initial segment of length `upper` minus the one of
    # length `lower`: colex_combinations sliced from `lower` to `upper`.
    def test_realize_example(self):
        assert list(itertools.islice(colex_combinations(4, 2), 1, 3)) == [(1, 3), (2, 3)]

    def test_degenerate_segments(self):
        assert list(itertools.islice(colex_combinations(4, 2), 2, 2)) == []
        plain = list(itertools.islice(colex_combinations(4, 2), 0, 3))
        assert plain == [(1, 2), (1, 3), (2, 3)]


class TestLemma9Claims:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_four_claims(self, n):
        for r in range(1, n + 1):
            layer = comb(n, r)
            oc = [ones_count_colex(n, r, m) for m in range(layer + 1)]
            for lower in range(layer + 1):
                for upper in range(lower, layer + 1):
                    seg = oc[upper] - oc[lower]
                    assert seg <= oc[upper - lower]  # claim 1
                    assert seg >= co_initial_ones_count(n, r, upper - lower)  # claim 3
            if r < n:
                for m in range(min(layer, comb(n, r + 1)) + 1):
                    assert oc[m] <= ones_count_colex(n, r + 1, m)  # claim 2
                    assert co_initial_ones_count(n, r, m) <= co_initial_ones_count(
                        n, r + 1, m
                    )  # claim 4


class TestLemma4Identity:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_shadow_of_colex_family_counts_sets_containing_one(self, n):
        for r in range(1, n + 1):
            shadow_seen = set()
            for m, zeros in enumerate(colex_combinations(n, r), start=1):
                x = tuple(0 if i in zeros else 1 for i in range(1, n + 1))
                shadow_seen |= seq_children(x, 0)
                assert len(shadow_seen) == ones_count_colex(n, r, m)


class TestCompress:
    def test_same_level_example(self):
        a = Family.of(2, 2, [(0, 1), (0, 2)])
        assert compress(a, (1,), (2,)).members == {(0, 1), (1, 0)}

    def test_cross_level_example(self):
        a = Family.of(2, 2, [(0, 1)])
        assert compress(a, (1, 1), (1,)).members == {(1, 1)}

    def test_fixpoint(self):
        a = Family.of(2, 2, [(1, 1), (0, 1)])
        assert compress(a, (1, 1), (1,)).members == a.members

    def test_invalid_shapes(self):
        a = Family.of(3, 2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            compress(a, (1,), (1, 1))  # t longer than s
        with pytest.raises(ValueError):
            compress(a, (1, 1), (1, 1))  # identical labels
        with pytest.raises(ValueError):
            compress(a, (1, 0), (1,))  # zero in a label
        with pytest.raises(ValueError, match=r"entries in \[1, 2\]"):
            compress(a, (-1, 1), (1,))  # negative entry, no mass to place
        with pytest.raises(ValueError, match=r"entries in \[1, 2\]"):
            compress(a, (1, 3), (1,))  # entry above k

    @given(
        st.integers(1, 4),
        st.integers(1, 3),
        st.data(),
    )
    @settings(max_examples=60)
    def test_cardinality_and_monotonicity(self, n, k, data):
        universe = list(itertools.product(range(k + 1), repeat=n))
        members = data.draw(st.sets(st.sampled_from(universe), min_size=1))
        a = Family.of(n, k, members)
        ls = data.draw(st.integers(1, n))
        s = tuple(data.draw(st.integers(1, k)) for _ in range(ls))
        if data.draw(st.booleans()) and ls >= 1:
            t = tuple(data.draw(st.integers(1, k)) for _ in range(ls - 1))
        else:
            t = tuple(data.draw(st.integers(1, k)) for _ in range(ls))
            if s == t:
                return
        b = compress(a, s, t)
        assert len(b) == len(a)
        assert len(delta(b)) <= len(delta(a))


class TestTrustedConstruction:
    """delta_r, compress, canonicalize, read_family and the generators of
    initial segments and canonical families build their results with the
    unvalidating constructor; each result must still be valid."""

    @given(st.integers(1, 4), st.integers(1, 3), st.data())
    @settings(max_examples=80)
    def test_outputs_equal_their_validated_copies(self, n, k, data):
        universe = list(itertools.product(range(k + 1), repeat=n))
        a = Family.of(n, k, data.draw(st.sets(st.sampled_from(universe))))
        buf = io.StringIO()
        write_family(a, buf)
        outputs = [
            delta_r(a, data.draw(st.integers(0, k))),
            canonicalize(a),
            read_family(io.StringIO(buf.getvalue())),
        ]
        ls = data.draw(st.integers(1, n))
        s = tuple(data.draw(st.integers(1, k)) for _ in range(ls))
        t = tuple(data.draw(st.integers(1, k)) for _ in range(ls - data.draw(st.integers(0, 1))))
        if s != t:
            outputs.append(compress(a, s, t))
        for b in outputs:
            assert isinstance(b.members, frozenset)
            assert b == Family.of(b.n, b.k, b.members)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(4) for k in range(1, 4)])
    def test_generated_families_equal_their_validated_copies(self, n, k):
        builds = [build for build, _, _ in _grid_builders(n, k)]
        builds += [lambda m=m: initial_segment_leq(n, k, m) for m in range((k + 1) ** n + 1)]
        if k == 1:
            builds += [lambda m=m: simplicial_initial_segment(n, m) for m in range(2 ** n + 1)]
        for build in builds:
            b = build()
            assert isinstance(b.members, frozenset)
            assert b == Family.of(b.n, b.k, b.members)


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize(Family.of(2, 1, [(1, 0), (0, 0)])).members == {(1, 1), (0, 1)}
        assert canonicalize(Family.of(2, 1, [(0, 1), (1, 0)])).members == {(1, 1), (0, 1)}
        seg = initial_segment_leq(3, 2, 11)
        assert canonicalize(seg).members == seg.members

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
    def test_exhaustive_small_universes(self, n, k):
        universe = list(itertools.product(range(k + 1), repeat=n))
        for m in range(len(universe) + 1):
            expected = initial_segment_leq(n, k, m).members
            for sub in itertools.combinations(universe, m):
                a = Family.of(n, k, sub)
                b, v_trace, w_trace = canonicalize_with_potentials(a)
                assert b.members == expected
                if m:
                    assert len(delta(b)) <= len(delta(a))
                assert all(x > y for x, y in zip(v_trace, v_trace[1:]))
                assert all(x > y for x, y in zip(w_trace, w_trace[1:]))


def _member_level_canonicalize(a):
    """The canonicalization passes replayed on members with the public
    `compress`: colex-pack, then cross-level and same-level sweeps to their
    fixpoints, with the potentials recomputed from the members."""
    n, k = a.n, a.k
    levels = [
        sorted(itertools.product(range(1, k + 1), repeat=n - zc), key=lambda u: c_key(u, k))
        for zc in range(n + 1)
    ]
    index = {u: j for labels in levels for j, u in enumerate(labels, start=1)}
    label_of = {}
    for x in a.members:
        label_of.setdefault(tuple(e for e in x if e), []).append(x)
    a = Family.of(n, k, (
        place_label(u, zeros)
        for u, xs in label_of.items()
        for zeros in itertools.islice(colex_combinations(n, n - len(u)), len(xs))
    ))

    def v(f):
        return sum(x.count(0) for x in f.members)

    def w(f):
        return sum(index[tuple(e for e in x if e)] for x in f.members)

    def sweep(f, pairs, trace, potential):
        changed = True
        while changed:
            changed = False
            for s, t in pairs:
                g = compress(f, s, t)
                if g.members != f.members:
                    f, changed = g, True
            if changed:
                trace.append(potential(f))
        return f

    cross = [
        (s, t)
        for zc in range(n, 0, -1)
        for s in reversed(levels[zc - 1])
        for t in reversed(levels[zc])
    ]
    same = [
        (s, t)
        for zc in range(n, -1, -1)
        for i, s in enumerate(levels[zc])
        for t in levels[zc][i + 1:]
    ]
    v_trace = [v(a)]
    if n > 0:
        a = sweep(a, cross, v_trace, v)
    w_trace = [w(a)]
    if n > 0 and k > 1:
        a = sweep(a, same, w_trace, w)
    return a, v_trace, w_trace


def _pairwise_canonicalize(a):
    """The count-level passes as pairwise sweeps: every cross-level pair and
    every same-level pair compressed in turn, each phase to its fixpoint."""
    n, k = a.n, a.k
    counts = {}
    for x in a.members:
        label = tuple(e for e in x if e)
        counts[label] = counts.get(label, 0) + 1
    levels = [tuple(level_labels(n, k, zc)) for zc in range(n + 1)]
    index = {label: j for labels in levels for j, label in enumerate(labels, start=1)}

    def compress_counts(s, t):
        cs = counts.get(s, 0)
        q = cs + counts.get(t, 0)
        fill = min(q, comb(n, len(s)))
        if fill == cs:
            return False
        counts[s], counts[t] = fill, q - fill
        return True

    def potential_v():
        return sum(c * (n - len(label)) for label, c in counts.items())

    def potential_w():
        return sum(c * index[label] for label, c in counts.items())

    v_trace = [potential_v()]
    if n > 0:
        changed = True
        while changed:
            changed = False
            for zc in range(n, 0, -1):
                for s in reversed(levels[zc - 1]):
                    for t in reversed(levels[zc]):
                        if compress_counts(s, t):
                            changed = True
            if changed:
                v_trace.append(potential_v())

    w_trace = [potential_w()]
    if n > 0 and k > 1:
        changed = True
        while changed:
            changed = False
            for zc in range(n, -1, -1):
                labels = levels[zc]
                for i, s in enumerate(labels):
                    for t in labels[i + 1:]:
                        if compress_counts(s, t):
                            changed = True
            if changed:
                w_trace.append(potential_w())

    members = {
        place_label(label, zeros)
        for label, c in counts.items()
        for zeros in itertools.islice(colex_combinations(n, n - len(label)), c)
    }
    return members, v_trace, w_trace


class TestCanonicalizeAsPours:
    @staticmethod
    def _assert_matches_pairwise(a):
        b, v_trace, w_trace = canonicalize_with_potentials(a)
        assert (b.members, v_trace, w_trace) == _pairwise_canonicalize(a)
        assert b.members == initial_segment_leq(a.n, a.k, len(a)).members

    @pytest.mark.parametrize("n,k", [(5, 3), (6, 2), (7, 2), (4, 4)])
    def test_matches_pairwise_sweeps(self, n, k):
        rng = random.Random(f"pour:{n}:{k}")
        universe = list(itertools.product(range(k + 1), repeat=n))
        sizes = [1, 2, 3, int(0.3 * len(universe)), int(0.7 * len(universe))]
        for m in sizes:
            self._assert_matches_pairwise(Family.of(n, k, rng.sample(universe, m)))

    def test_sparse_family_matches_pairwise_sweeps(self):
        rng = random.Random("pour:6:3:sparse")
        universe = list(itertools.product(range(4), repeat=6))
        self._assert_matches_pairwise(Family.of(6, 3, rng.sample(universe, 40)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 3), st.data())
    def test_grid_matches_pairwise_sweeps_and_iterates_in_order(self, n, k, data):
        members = data.draw(st.sets(st.tuples(*[st.integers(0, k)] * n), max_size=80))
        a = Family.of(n, k, members)
        self._assert_matches_pairwise(a)
        b = canonicalize(a)
        assert list(b) == sorted(b.members, key=lambda x: orders.leq_key(x, k))
        assert b == Family.of(n, k, b.members)

    def test_only_the_labels_placed_are_drawn(self, monkeypatch):
        rng = random.Random("pour:no-labels")
        universe = list(itertools.product(range(4), repeat=5))
        a = Family.of(5, 3, rng.sample(universe, 300))
        expected = list(itertools.islice(iter_leq(5, 3), 300))
        drawn = []

        def counted(*args):
            for label in level_labels(*args):
                drawn.append(label)
                yield label

        monkeypatch.setattr(extremal, "level_labels", counted)
        assert list(canonicalize(a)) == expected
        assert drawn == list(dict.fromkeys(seqcore.reduced(x) for x in expected))


class TestCanonicalizeOnCounts:
    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (3, 3), (5, 1)])
    def test_matches_member_level_passes(self, n, k):
        rng = random.Random(f"canon:{n}:{k}")
        universe = list(itertools.product(range(k + 1), repeat=n))
        for share in (0.1, 0.3, 0.5, 0.7):
            a = Family.of(n, k, rng.sample(universe, int(share * len(universe))))
            b, v_trace, w_trace = canonicalize_with_potentials(a)
            expected, ev, ew = _member_level_canonicalize(a)
            assert b.members == expected.members
            assert (v_trace, w_trace) == (ev, ew)
            assert b.members == initial_segment_leq(n, k, len(a)).members


class TestMinDeltaShadow:
    def test_examples(self):
        assert min_delta_shadow_size(2, 1, 3) == 1
        assert min_delta_shadow_size(2, 1, 4) == 2
        for n, k in [(2, 2), (3, 2), (3, 3)]:
            for m in range(k ** n + 1):
                assert min_delta_shadow_size(n, k, m) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            min_delta_shadow_size(2, 1, 5)

    @pytest.mark.parametrize(
        "n,k", [(2, 1), (5, 1), (9, 1), (3, 2), (6, 2), (2, 3), (4, 3)]
    )
    def test_agrees_with_direct_shadow_of_initial_segments(self, n, k):
        shadow_seen = set()
        for m, x in enumerate(iter_leq(n, k), start=1):
            shadow_seen |= seq_children(x, 0)
            assert min_delta_shadow_size(n, k, m) == len(shadow_seen)


class TestCanonicalFamilies:
    def test_l_leq(self):
        assert family_l_leq(2, 1, 0, 1).members == {(1, 1), (0, 1), (1, 0)}
        assert len(family_l_leq(3, 2, 1, 3)) == 27

    def test_b_rt(self):
        assert family_b_rt(2, 2, 1, 1).members == {(1, 1), (0, 1), (1, 0)}
        assert len(family_b_rt(3, 2, 2, 2)) == 26

    def test_a_t(self):
        assert family_a_t(2, 2, 2).members == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert len(family_a_t(3, 3, 2)) == 8

    def test_dispatch_and_errors(self):
        assert canonical_family("at", n=2, k=2, t=1).members == {(0, 0)}
        with pytest.raises(ValueError):
            canonical_family("nope", n=2, k=2)
        with pytest.raises(ValueError):
            family_a_t(2, 2, 3)
        with pytest.raises(ValueError):
            family_l_leq(2, 2, 0, 3)


def _grid_builders(n, k):
    """(builder, filter definition, size in closed form) for every r, t and s
    of the three canonical families."""
    for r, t in itertools.product(range(k + 1), repeat=2):
        yield (lambda r=r, t=t: family_b_rt(n, k, r, t),
               lambda x, r=r, t=t: max(x, default=0) <= t and x.count(0) <= r,
               sum(comb(n, z) * t ** (n - z) for z in range(min(r, n) + 1)))
    for r_del, s in itertools.product(range(k + 1), range(n + 1)):
        yield (lambda r_del=r_del, s=s: family_l_leq(n, k, r_del, s),
               lambda x, r_del=r_del, s=s: sum(e <= r_del for e in x) <= s,
               sum(level_size(n, k, r_del, i) for i in range(s + 1)))
    for t in range(1, k + 1):
        yield (lambda t=t: family_a_t(n, k, t),
               lambda x, t=t: max(x, default=0) < t,
               t ** n)


class TestConstructiveFamilies:
    """The builders place the positions of the few low entries and fill the
    rest, and refuse a family over FAMILY_ENTRY_LIMIT entries by its size in
    closed form, before any work."""

    GRID = [(n, k) for n in range(5) for k in range(1, 4)]

    @pytest.mark.parametrize("n,k", GRID)
    def test_members_equal_the_filter_definitions(self, n, k):
        for build, keep, size in _grid_builders(n, k):
            fam = build()
            universe = itertools.product(range(k + 1), repeat=n)
            assert fam == Family.of(n, k, filter(keep, universe))
            assert len(fam) == size

    @pytest.mark.parametrize("n,k", GRID)
    def test_entry_limit_is_decided_by_the_exact_size(self, monkeypatch, n, k):
        for build, _, size in _grid_builders(n, k):
            entries = size * max(n, 1)
            monkeypatch.setattr(seqcore, "FAMILY_ENTRY_LIMIT", entries)
            assert len(build()) == size
            if size:
                monkeypatch.setattr(seqcore, "FAMILY_ENTRY_LIMIT", entries - 1)
                with pytest.raises(ValueError, match="^family infeasible"):
                    build()

    @pytest.mark.parametrize("build", [
        lambda: family_a_t(40, 3, 3),
        lambda: family_b_rt(40, 3, 3, 3),
        lambda: family_b_rt(40, 3, 0, 2),
        lambda: family_l_leq(40, 3, 0, 40),
        lambda: initial_segment_leq(40, 3, 10 ** 11),
    ], ids=["at", "brt", "brt_zero_free", "lleq", "initseg"])
    def test_huge_family_is_refused_before_any_work(self, monkeypatch, build):
        # The builders collect their members into a frozenset, then call the
        # trusting Family.  A failing frozenset stops them before the first
        # member is generated, so a missing refusal fails here, not hangs.
        for module in (extremal, orders):
            for name in ("frozenset", "Family"):
                monkeypatch.setattr(module, name, lambda *args: pytest.fail("work started"),
                                    raising=False)
        with pytest.raises(ValueError, match="^family infeasible: its members of length 40 "):
            build()


class TestProp10Bound:
    def test_level_union_attains_the_bound(self):
        fam = family_l_leq(2, 2, 0, 1)
        assert prop10_lower_bound(fam, 0) == Fraction(2)
        assert len(delta(fam)) == 2

    def test_zero_free_family(self):
        fam = Family.of(3, 2, [(1, 2, 1), (2, 2, 2)])
        assert prop10_lower_bound(fam, 0) == 0

    def test_single_sequence(self):
        fam = Family.of(5, 2, [(0, 0, 1, 2, 1)])
        assert prop10_lower_bound(fam, 1) == Fraction(4, 10)
        assert len(delta_r(fam, 1)) == 3

    def test_is_exact_rational(self):
        fam = Family.of(3, 2, [(0, 1, 1)])
        assert isinstance(prop10_lower_bound(fam, 0), Fraction)


class TestLevelFormulas:
    @pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (5, 3)])
    def test_closed_form_shadow_of_level_unions(self, n, k):
        for r in range(k):
            for s in range(n + 1):
                fam = family_l_leq(n, k, r, s)
                direct = len(delta_r(fam, r)) if len(fam) else 0
                assert direct == l_leq_shadow_size(n, k, r, s)
                assert sum(level_size(n, k, r, i) for i in range(s + 1)) == len(fam)
