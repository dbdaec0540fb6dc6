"""End-to-end acceptance sweep.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE <n> <name>: PASS``/``FAIL`` line (run pytest with ``-s`` to see
the lines as they happen).
"""
import itertools
import random
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from delshadow.extremal import (
    canonicalize_with_potentials,
    family_a_t,
    l_leq_shadow_size,
    family_l_leq,
    min_delta_shadow_size,
    ones_count_colex,
    prop10_lower_bound,
)
from delshadow.orders import initial_segment_leq
from delshadow.seqcore import Family
from delshadow.shadow import delta, delta_r, deletion_multidegree, full_deletion
from delshadow.verify import (
    SearchBudget,
    check_a_t,
    check_conjecture1,
    check_corollary11,
    check_degree_identity,
    check_lemma4,
    check_lemma7,
    check_lemma8,
    check_lemma9,
    check_prop10,
    check_theorem1,
    check_theorem2,
)

EXHAUSTIVE = SearchBudget(mode="exhaustive")


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


def test_01_worked_examples():
    with criterion(1, "worked-examples"):
        a = Family.of(5, 1, [(0, 0, 0, 1, 1), (0, 0, 1, 0, 1)])
        assert delta(a).members == {(0, 0, 1, 1), (0, 1, 0, 1)}

        b = Family.of(3, 3, [(1, 1, 2), (1, 1, 3), (1, 2, 3)])
        assert delta(b).members == set()

        c = Family.of(3, 2, [(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 2, 1)])
        assert full_deletion(c).members == {
            (0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (2, 1),
        }

        x = (0, 0, 1, 2, 1)
        assert deletion_multidegree(x, (0, 1, 2, 1), 1) == 2
        assert deletion_multidegree(x, (0, 0, 2, 1), 1) == 1
        assert deletion_multidegree(x, (0, 0, 1, 2), 1) == 1


def test_02_theorem1_exhaustive_binary():
    with criterion(2, "theorem1-binary-exhaustive"):
        for n in (2, 3, 4):
            rep = check_theorem1(n, 1, EXHAUSTIVE)
            assert rep.ok, rep.to_dict()
            assert rep.instances_checked == 2 ** (2 ** n)


def test_03_theorem1_ternary():
    with criterion(3, "theorem1-k2"):
        rep = check_theorem1(2, 2, EXHAUSTIVE)
        assert rep.ok, rep.to_dict()
        assert rep.instances_checked == 2 ** 9
        rep = check_theorem1(3, 2, EXHAUSTIVE)
        assert rep.ok, rep.to_dict()
        assert rep.instances_checked == 2 ** 27

        budget = SearchBudget(mode="bounded", max_size=6, samples=100_000, rng_seed=0)
        rep = check_theorem1(3, 2, budget)
        assert rep.ok, rep.to_dict()
        sampled_sizes = sum(1 for m in range(28) if min(m, 27 - m) > 6)
        assert rep.instances_checked >= sampled_sizes * 100_000


def test_04_lemma4_identity():
    with criterion(4, "lemma4-identity"):
        rep = check_lemma4()
        assert rep.ok, rep.to_dict()
        assert rep.instances_checked == sum(
            comb(n, r) + 1 for n in range(1, 11) for r in range(1, n + 1)
        )


def test_05_compression_monotone():
    with criterion(5, "compression-monotone"):
        budget = SearchBudget(mode="bounded", max_size=2, samples=10_000, rng_seed=0)
        for rep in (check_lemma7(budget), check_lemma8(budget)):
            assert rep.ok, rep.to_dict()
            assert rep.instances_checked >= 10_000


def test_06_canonicalize():
    with criterion(6, "canonicalize"):
        # full enumeration wherever the subset count is feasible
        for n, k in [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]:
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
        # (3, 2) has 2^27 subsets: sizes 1-2 exhaustively, the rest sampled
        universe = list(itertools.product(range(3), repeat=3))
        small = [Family.of(3, 2, sub) for m in (1, 2)
                 for sub in itertools.combinations(universe, m)]
        rng = random.Random("canonicalize:3:2")
        sampled = [
            Family.of(3, 2, rng.sample(universe, rng.randint(1, 27)))
            for _ in range(400)
        ]
        for a in small + sampled:
            b, v_trace, w_trace = canonicalize_with_potentials(a)
            assert b.members == initial_segment_leq(3, 2, len(a)).members
            assert len(delta(b)) <= len(delta(a))
            assert all(x > y for x, y in zip(v_trace, v_trace[1:]))
            assert all(x > y for x, y in zip(w_trace, w_trace[1:]))


def test_07_lemma9_claims():
    with criterion(7, "lemma9-claims"):
        rep = check_lemma9()
        assert rep.ok, rep.to_dict()
        assert rep.instances_checked > 0


def test_08_prop10_corollary11():
    with criterion(8, "prop10-corollary11"):
        rep = check_prop10(SearchBudget(mode="bounded", samples=2000, rng_seed=0))
        assert rep.ok, rep.to_dict()
        rep = check_corollary11()
        assert rep.ok, rep.to_dict()
        # the closed form, the direct shadow and the rational bound coincide
        for n in range(1, 6):
            for k in range(1, 4):
                for r in range(k):
                    for s in range(n + 1):
                        fam = family_l_leq(n, k, r, s)
                        closed = l_leq_shadow_size(n, k, r, s)
                        direct = len(delta_r(fam, r)) if len(fam) else 0
                        assert direct == closed
                        assert prop10_lower_bound(fam, r) == Fraction(closed)


def test_09_degree_identity():
    with criterion(9, "degree-identity"):
        rep = check_degree_identity()
        assert rep.ok, rep.to_dict()


def test_10_theorem2_simplicial():
    with criterion(10, "theorem2-simplicial"):
        for n in (1, 2, 3, 4):
            rep = check_theorem2(n, EXHAUSTIVE)
            assert rep.ok, rep.to_dict()
            assert rep.instances_checked == 2 ** (2 ** n)


def test_11_subcube_extremality_and_open_question():
    with criterion(11, "subcube-and-open-question"):
        for n in range(1, 5):
            for k in (2, 3):
                for t in range(1, k + 1):
                    at = family_a_t(n, k, t)
                    assert len(delta_r(at, k)) == t ** (n - 1)
        for n in (2, 3):
            rep = check_a_t(n, 2, EXHAUSTIVE)
            assert rep.ok, rep.to_dict()
            assert rep.observations == []
        # the open-question checker reports, never fails
        rep22 = check_conjecture1(2, 2, EXHAUSTIVE)
        rep32 = check_conjecture1(
            3, 2, SearchBudget(mode="bounded", max_size=3, samples=2000, rng_seed=0)
        )
        rep32_exact = check_conjecture1(3, 2, EXHAUSTIVE)
        for rep in (rep22, rep32, rep32_exact):
            assert rep.ok
            assert rep.observations


def test_12_minimum_formula_spot_values():
    # not a numbered criterion: anchors the closed form to hand values
    assert min_delta_shadow_size(2, 1, 3) == 1
    assert min_delta_shadow_size(2, 1, 4) == 2
    assert ones_count_colex(4, 2, 3) == 2
