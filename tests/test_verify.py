import hashlib
import itertools
import json
import os
import random
from math import comb
from unittest import mock

import pytest

from delshadow import extremal, shadow, verify
from delshadow.extremal import min_delta_shadow_size
from delshadow.seqcore import Family, zero_count
from delshadow.verify import (
    A_T_MEMBER_LIMIT,
    EXHAUSTIVE_UNIVERSE_LIMIT,
    SWEEP_UNIVERSE_LIMIT,
    SearchBudget,
    brute_force_min_shadow,
    check_a_t,
    check_conjecture1,
    check_lemma3,
    check_lemma6,
    check_lemma7,
    check_lemma8,
    check_prop10,
    check_theorem1,
    check_theorem2,
    child_masks,
    decode,
    encode,
    run_suite,
    universe_sequences,
    worker_count,
)

EXHAUSTIVE = SearchBudget(mode="exhaustive")
FAST_RANDOM = SearchBudget(mode="random", samples=50, rng_seed=7)


class TestEncoding:
    def test_encode_is_a_bijection(self):
        for n, k in [(3, 1), (2, 2), (2, 3)]:
            codes = {encode(x, k) for x in universe_sequences(n, k)}
            assert codes == set(range((k + 1) ** n))

    def test_decode_inverts_encode(self):
        for n, k in [(0, 1), (3, 1), (2, 2), (2, 3)]:
            for x in universe_sequences(n, k):
                assert decode(encode(x, k), n, k) == x

    def test_child_masks_popcounts(self):
        masks = child_masks(2, 1, 0)
        # sequences in base-2 code order: 00, 01, 10, 11
        assert [m.bit_count() for m in masks] == [1, 1, 1, 0]


class TestSearchBudget:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SearchBudget(mode="thorough")

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            SearchBudget(mode="random", samples=0)

    def test_rejects_negative_max_size_when_bounded(self):
        with pytest.raises(ValueError, match="max_size"):
            SearchBudget(mode="bounded", max_size=-1)
        assert SearchBudget(mode="random", max_size=-1).max_size == -1

    def test_exhaustive_ignores_samples(self):
        assert SearchBudget(mode="exhaustive", samples=0).mode == "exhaustive"


class TestBruteForce:
    def test_examples(self):
        assert brute_force_min_shadow(2, 1, 3, 0, EXHAUSTIVE).value == 1
        assert brute_force_min_shadow(2, 1, 4, 0, EXHAUSTIVE).value == 2
        assert brute_force_min_shadow(1, 1, 2, 0, EXHAUSTIVE).value == 1

    def test_witness_attains_the_value(self):
        from delshadow.shadow import delta

        res = brute_force_min_shadow(2, 2, 5, 0, EXHAUSTIVE)
        assert res.exact
        assert len(delta(res.witness)) == res.value

    def test_instances_match_binomials(self):
        for m in range(5):
            res = brute_force_min_shadow(2, 1, m, 0, EXHAUSTIVE)
            assert res.instances_checked == comb(4, m)

    def test_size_out_of_range(self):
        with pytest.raises(ValueError):
            brute_force_min_shadow(2, 1, 5, 0, EXHAUSTIVE)

    def test_exhaustive_refuses_large_universes(self):
        assert 2 ** 5 > EXHAUSTIVE_UNIVERSE_LIMIT
        with pytest.raises(ValueError):
            brute_force_min_shadow(5, 1, 3, 0, EXHAUSTIVE)

    def test_sampling_upper_bounds_the_truth(self):
        for m in range(3, 8):
            sampled = brute_force_min_shadow(3, 1, m, 0, FAST_RANDOM)
            assert not sampled.exact
            assert sampled.value >= min_delta_shadow_size(3, 1, m)

    def test_bounded_is_exact_for_small_and_cosmall_sizes(self):
        budget = SearchBudget(mode="bounded", max_size=2, samples=10)
        for m in (0, 1, 2, 7, 8, 9):
            assert brute_force_min_shadow(2, 2, m, 0, budget).exact
        assert not brute_force_min_shadow(2, 2, 4, 0, budget).exact

    def test_same_seed_same_answer(self):
        a = brute_force_min_shadow(3, 1, 4, 0, FAST_RANDOM)
        b = brute_force_min_shadow(3, 1, 4, 0, FAST_RANDOM)
        assert (a.value, a.witness.members) == (b.value, b.witness.members)


class TestWorkerCount:
    def test_env_override(self):
        with mock.patch.dict(os.environ, {"DELSHADOW_THREADS": "3"}):
            assert worker_count() == 3

    def test_floor_of_one(self):
        with mock.patch.dict(os.environ, {"DELSHADOW_THREADS": "0"}):
            assert worker_count() == 1

    def test_non_integer_names_the_variable(self):
        with mock.patch.dict(os.environ, {"DELSHADOW_THREADS": "abc"}):
            with pytest.raises(ValueError, match="DELSHADOW_THREADS"):
                worker_count()


class TestSuite:
    def test_empty_name_list(self):
        assert run_suite([], EXHAUSTIVE) == []

    def test_unknown_check_name(self):
        with pytest.raises(ValueError):
            run_suite(["theorem17"], EXHAUSTIVE)

    def test_unknown_name_is_rejected_before_any_check_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(verify, "check_theorem1", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match="theorem17"):
            run_suite(["theorem1", "theorem17"], EXHAUSTIVE)
        assert ran == []

    def test_all_proven_checks_pass_at_desk_scale(self):
        budget = SearchBudget(mode="bounded", max_size=16, samples=200, rng_seed=1)
        from delshadow.verify import PROVEN_CHECKS

        reports = run_suite(list(PROVEN_CHECKS), budget)
        assert [rep.check for rep in reports] == list(PROVEN_CHECKS)
        for rep in reports:
            assert rep.ok, rep.to_dict()
            assert rep.instances_checked > 0
            assert rep.elapsed > 0

    def test_conjecture_reports_observations_not_violations(self):
        rep = check_conjecture1(2, 2, SearchBudget(mode="exhaustive"))
        assert rep.ok
        assert rep.instances_checked > 0

    def test_reports_are_deterministic_given_a_seed(self):
        budget = SearchBudget(mode="random", samples=40, rng_seed=11)
        a = [r.to_dict(include_elapsed=False) for r in run_suite(["theorem1"], budget)]
        b = [r.to_dict(include_elapsed=False) for r in run_suite(["theorem1"], budget)]
        assert a == b

    def test_results_do_not_depend_on_worker_count(self):
        budget = SearchBudget(mode="random", samples=40, rng_seed=3)
        with mock.patch.dict(os.environ, {"DELSHADOW_THREADS": "1"}):
            serial = check_theorem1(3, 1, budget).to_dict(include_elapsed=False)
        with mock.patch.dict(os.environ, {"DELSHADOW_THREADS": "2"}):
            parallel = check_theorem1(3, 1, budget).to_dict(include_elapsed=False)
        assert serial == parallel

    def test_theorem1_instances_cross_check(self):
        rep = check_theorem1(2, 1, EXHAUSTIVE)
        assert rep.ok
        assert rep.instances_checked == sum(comb(4, m) for m in range(5))


@pytest.fixture
def pool_spy(monkeypatch):
    """The list of pools created, one entry per ProcessPoolExecutor."""
    created = []

    class Spy(verify.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", Spy)
    return created


def _count_calls(monkeypatch, name):
    """Wrap verify.<name>; return the list its calls append to."""
    calls = []
    fn = getattr(verify, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(verify, name, counted)
    return calls


class TestSweepEngine:
    """Every size search goes through one engine: exact sizes in-process by
    one DP, sampled sizes in-process below POOL_MIN_SAMPLES and over a pool
    above it, with the same reports either way."""

    BOUNDED = SearchBudget(mode="bounded", max_size=2, samples=60, rng_seed=5)
    SWEEPS = {
        "theorem1": lambda b: check_theorem1(3, 1, b),
        "theorem2": lambda b: check_theorem2(3, b),
        "conjecture1": lambda b: check_conjecture1(2, 2, b),
        "a_t": lambda b: check_a_t(2, 2, b),
    }

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    @pytest.mark.parametrize("budget", [BOUNDED, EXHAUSTIVE], ids=["bounded", "exhaustive"])
    def test_forced_pool_matches_one_worker(self, monkeypatch, pool_spy, name, budget):
        check = self.SWEEPS[name]
        monkeypatch.setenv("DELSHADOW_THREADS", "1")
        serial = check(budget).to_dict(include_elapsed=False)
        assert pool_spy == []
        monkeypatch.setattr(verify, "POOL_MIN_SAMPLES", 0)
        monkeypatch.setenv("DELSHADOW_THREADS", "2")
        pooled = check(budget).to_dict(include_elapsed=False)
        # Only sampled sizes go to the pool; a_t searches minimality in
        # exhaustive mode only, so it never samples.
        sampled = budget is self.BOUNDED and name != "a_t"
        pools = [verify._load_worker_masks] if sampled else []
        assert [kw["initializer"] for kw in pool_spy] == pools
        assert pooled == serial

    def test_pooled_witnesses_match_one_worker(self, monkeypatch, pool_spy):
        right = extremal.min_delta_shadow_size
        monkeypatch.setattr(extremal, "min_delta_shadow_size", lambda n, k, m: right(n, k, m) + 1)
        monkeypatch.setenv("DELSHADOW_THREADS", "1")
        serial = check_theorem1(3, 1, self.BOUNDED).to_dict(include_elapsed=False)
        monkeypatch.setattr(verify, "POOL_MIN_SAMPLES", 0)
        monkeypatch.setenv("DELSHADOW_THREADS", "2")
        pooled = check_theorem1(3, 1, self.BOUNDED).to_dict(include_elapsed=False)
        assert len(pool_spy) == 1
        assert len(serial["violations"]) == 9
        assert pooled == serial

    @pytest.mark.parametrize("samples,pools", [(6666, 0), (6667, 1)])
    def test_cut_off(self, monkeypatch, pool_spy, samples, pools):
        # Five sampled sizes at (2, 1): 5 * samples samples in all.
        assert 5 * 6666 < verify.POOL_MIN_SAMPLES <= 5 * 6667
        monkeypatch.setenv("DELSHADOW_THREADS", "2")
        check_theorem1(2, 1, SearchBudget(mode="random", samples=samples))
        assert len(pool_spy) == pools

    @pytest.mark.parametrize("samples,pools", [(16666, 0), (16667, 1)])
    def test_cut_off_counts_only_sampled_sizes(self, monkeypatch, pool_spy, samples, pools):
        # Sizes 1 and 2 are sampled, size 0 is exact: 2 * 16667 == POOL_MIN_SAMPLES.
        assert 2 * 16667 == verify.POOL_MIN_SAMPLES
        monkeypatch.setenv("DELSHADOW_THREADS", "2")
        budget = SearchBudget(mode="bounded", max_size=0, samples=samples)
        verify._search_sizes(2, 1, 0, [1, 2, 0], budget)
        assert len(pool_spy) == pools

    def test_masks_built_once_and_witnesses_only_when_recorded(self, monkeypatch):
        masks = _count_calls(monkeypatch, "child_masks")
        witnesses = _count_calls(monkeypatch, "_witness")
        monkeypatch.setenv("DELSHADOW_THREADS", "1")
        assert check_theorem1(3, 1, self.BOUNDED).ok
        assert check_conjecture1(2, 2, self.BOUNDED).ok
        assert (len(masks), witnesses) == (2, [])

    def test_repeated_sizes_are_searched_once_and_counted_each_time(self, monkeypatch):
        decided = _count_calls(monkeypatch, "_exact_search")
        searched = _count_calls(monkeypatch, "_seeded_sample")
        monkeypatch.setenv("DELSHADOW_THREADS", "1")
        results = verify._search_sizes(2, 1, 0, [3, 1, 3], EXHAUSTIVE)
        assert [args[1] for args in decided] == [3]
        assert searched == []
        assert [r.instances for r in results] == [4, 4, 4]
        assert results[0] == results[2]
        results = verify._search_sizes(2, 1, 0, [3, 1, 3], FAST_RANDOM)
        assert [args[3] for args in searched] == [3, 1]
        assert [r.instances for r in results] == [50, 50, 50]
        assert results[0] == results[2]

    @pytest.mark.parametrize("sweep", [
        lambda: check_theorem1(30, 1, FAST_RANDOM),
        lambda: check_theorem2(30, FAST_RANDOM),
        lambda: check_conjecture1(30, 1, FAST_RANDOM),
    ], ids=["theorem1", "theorem2", "conjecture1"])
    def test_huge_universe_is_refused_before_any_work(self, monkeypatch, sweep):
        def no_work(*args):
            raise AssertionError("work started")

        for mod, attr in ((verify, "child_masks"), (extremal, "family_b_rt"),
                          (extremal, "min_delta_shadow_size"), (shadow, "delta_r"),
                          (shadow, "seq_children")):
            monkeypatch.setattr(mod, attr, no_work)
        with pytest.raises(ValueError, match=f"universe has 2\\^30 > {SWEEP_UNIVERSE_LIMIT}"):
            sweep()

    @pytest.mark.parametrize("n,k,refusal", [
        (12, 1, None),
        (13, 1, "universe has 2\\^13 > 4096"),
        (14, 1, "universe has 2\\^14 > 4096"),
        (1, 4095, None),
        (1, 4096, "universe has 4097\\^1 > 4096"),
        (0, 10 ** 100, None),
        (7, 3, "universe has 4\\^7 > 4096"),
    ])
    def test_universe_limit_is_decided_before_any_large_power(self, n, k, refusal):
        if refusal is None:
            assert verify._sweep_universe(n, k) == (k + 1) ** n
        else:
            with pytest.raises(ValueError, match=f"sweep infeasible: {refusal} elements"):
                verify._sweep_universe(n, k)

    def test_sampled_sweep_over_the_draw_limit_is_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(verify, "child_masks", lambda *args: pytest.fail("work started"))
        # 10 000 samples of every size at (12, 1): 8 390 656 draws per sample.
        with pytest.raises(ValueError, match="^sampled search infeasible: 10000 samples of sizes "
                                             "summing to 8390656 make 83906560000 > 268435456 draws$"):
            check_theorem1(12, 1, SearchBudget(mode="random"))

    @pytest.mark.parametrize("limit,refused", [(24, False), (23, True)])
    def test_draw_limit_counts_each_sampled_size_once(self, monkeypatch, limit, refused):
        # At (2, 2) with max_size 1, sizes 0 and 1 are exact; 3 and 5 are
        # sampled, 3 samples each: 3 * (3 + 5) = 24 draws.
        monkeypatch.setattr(verify, "SAMPLE_DRAW_LIMIT", limit)
        budget = SearchBudget(mode="bounded", max_size=1, samples=3)
        if refused:
            with pytest.raises(ValueError, match="make 24 > 23 draws"):
                verify._search_sizes(2, 2, 0, [3, 5, 3, 0, 1], budget)
        else:
            assert len(verify._search_sizes(2, 2, 0, [3, 5, 3, 0, 1], budget)) == 5

    def test_infeasible_exhaustive_sweep_is_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(verify, "child_masks", lambda *args: pytest.fail("work started"))
        # The default budget decides size 0 exactly, so it is refused on every
        # universe over EXHAUSTIVE_UNIVERSE_LIMIT elements.
        for budget in (EXHAUSTIVE, SearchBudget()):
            with pytest.raises(ValueError, match="exhaustive search infeasible"):
                check_theorem1(4, 2, budget)


def _reference_search(masks, n, k, m, r_del, budget):
    """Reference for the search of one size: every m-subset from
    itertools.combinations when exact, else `rng.sample(range(size), m)`."""
    size = len(masks)
    exact = verify._is_exact(budget, size, m)
    if exact:
        candidates = itertools.combinations(range(size), m)
    else:
        rng = verify._sample_rng(budget.rng_seed, n, k, m, r_del)
        candidates = (rng.sample(range(size), m) for _ in range(budget.samples))
    best, best_idx, count = None, (), 0
    for idx in candidates:
        acc = 0
        for i in idx:
            acc |= masks[i]
        count += 1
        v = acc.bit_count()
        if best is None or v < best:
            best, best_idx = v, idx
    return verify._Best(best or 0, sum(1 << i for i in best_idx), exact, count)


class TestSampleKernel:
    """The fused sampler draws the subsets rng.sample draws, so every result
    of the size-search engine equals the reference field by field.
    Random.sample keeps a pool while U <= 21 + (4^ceil(log4(3m)) for m > 5),
    else a set: at U = 27 it switches from the set (m <= 5) to the pool
    (m >= 6)."""

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("mode", ["random", "bounded"])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_every_size_matches_rng_sample(self, n, k, mode, seed):
        budget = SearchBudget(mode=mode, max_size=1, samples=25, rng_seed=seed)
        for r_del in range(k + 1):
            masks = child_masks(n, k, r_del)
            sizes = range(len(masks) + 1)
            for m, got in zip(sizes, verify._search_sizes(n, k, r_del, sizes, budget)):
                assert got == _reference_search(masks, n, k, m, r_del, budget), (r_del, m)

    @pytest.mark.parametrize("n,sizes", [
        (7, [1, 5, 6, 42, 64, 127, 128]),
        (9, [1, 6, 43, 86, 256, 511, 512]),
    ])
    def test_universes_past_the_pool_size(self, n, sizes):
        budget = SearchBudget(mode="random", samples=3, rng_seed=2)
        masks = child_masks(n, 1, 0)
        for m, got in zip(sizes, verify._search_sizes(n, 1, 0, sizes, budget)):
            assert got == _reference_search(masks, n, 1, m, 0, budget), m


class TestBoundedKernel:
    """Under a bound, the kernel stops scoring a sample once it cannot beat
    the best, yet draws every sample: the stream is rng.sample's, a value
    below the bound is the unbounded search's, field by field, and no value
    below it gives (bound, 0, False, samples)."""

    # (n, k, m, samples): at U = 9 every m uses the pool; at U = 27, m <= 5
    # the set and m >= 6 the pool; at U = 128, m = 6 the set and m >= 40 the
    # pool.  Every m = U uses the pool.
    CASES = [
        (2, 2, 0, 200), (2, 2, 1, 200), (2, 2, 4, 200), (2, 2, 9, 200),
        (3, 2, 0, 200), (3, 2, 1, 200), (3, 2, 3, 200), (3, 2, 5, 200),
        (3, 2, 6, 200), (3, 2, 14, 200), (3, 2, 27, 200),
        (7, 1, 0, 20), (7, 1, 1, 20), (7, 1, 6, 20), (7, 1, 40, 20), (7, 1, 128, 20),
    ]

    @pytest.mark.parametrize("n,k,m,samples", CASES)
    def test_stream_and_results_equal_the_unbounded_search(self, n, k, m, samples):
        masks = child_masks(n, k, 0)
        least = min_delta_shadow_size(n, k, m)
        unbounded = verify._sample_search(masks, m, random.Random(m), samples)
        for bound in (0, 1, least, least + 1, float("inf")):
            rng = random.Random(m)
            got = verify._sample_search(masks, m, rng, samples, bound)
            twin = random.Random(m)
            for _ in range(samples):
                twin.sample(range(len(masks)), m)
            assert rng.getstate() == twin.getstate(), bound
            if unbounded.value < bound:
                assert got == unbounded, bound
            else:
                assert got == (bound, 0, False, samples), bound

    def test_a_repeated_size_takes_its_largest_bound(self):
        budget = SearchBudget(mode="random", samples=30, rng_seed=9)
        unbounded = verify._search_sizes(3, 2, 0, [8, 1], budget)
        assert unbounded[0].value < 100
        got = verify._search_sizes(3, 2, 0, [8, 1, 8], budget, [0, 0, 100])
        assert got == [unbounded[0], (0, 0, False, 30), unbounded[0]]

    @pytest.mark.parametrize("bounds", [[5], [5, 5, 5]])
    def test_a_bound_count_unlike_the_sizes_is_refused(self, bounds):
        budget = SearchBudget(mode="random", samples=30, rng_seed=9)
        with pytest.raises(ValueError):
            verify._search_sizes(3, 2, 0, [8, 1], budget, bounds)

    def test_forced_pool_matches_one_worker(self, monkeypatch, pool_spy):
        budget = SearchBudget(mode="bounded", max_size=6, samples=300, rng_seed=2)
        sizes = list(range(28)) + [10, 15]
        bounds = [min_delta_shadow_size(3, 2, m) + m % 3 - 1 for m in range(28)] + [0, 99]
        monkeypatch.setenv("DELSHADOW_THREADS", "1")
        serial = verify._search_sizes(3, 2, 0, sizes, budget, bounds)
        assert pool_spy == []
        monkeypatch.setattr(verify, "POOL_MIN_SAMPLES", 0)
        monkeypatch.setenv("DELSHADOW_THREADS", "2")
        pooled = verify._search_sizes(3, 2, 0, sizes, budget, bounds)
        assert len(pool_spy) == 1
        assert pooled == serial
        assert any(r.value < b for r, b in zip(serial, bounds) if not r.exact)

    # sha256 of the report of check_theorem1(3, 2) under BROKEN_BUDGET with the
    # closed form off by +1 and by -1, recorded from the unbounded search.
    BROKEN_BUDGET = SearchBudget(mode="bounded", max_size=6, samples=2400, rng_seed=4)
    BROKEN_DIGESTS = {
        1: (16, "9f1612f21f984e7a32884e707fc560967c941d732b531b729df0182d34df0fc1"),
        -1: (14, "3a6751a7ba12adb65ceef060464577625257ef8f8f4200440b44b80998f6bba5"),
    }

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("off", [1, -1])
    def test_reports_under_a_broken_closed_form_are_unchanged(self, monkeypatch, threads, off):
        right = extremal.min_delta_shadow_size
        monkeypatch.setattr(extremal, "min_delta_shadow_size",
                            lambda n, k, m: right(n, k, m) + off)
        monkeypatch.setenv("DELSHADOW_THREADS", threads)
        rep = check_theorem1(3, 2, self.BROKEN_BUDGET).to_dict(include_elapsed=False)
        digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
        assert (len(rep["violations"]), digest) == self.BROKEN_DIGESTS[off]


def _enumerable_sizes(size):
    """The sizes m with C(size, m) <= 20 475: the reference scans at most
    that many subsets per size (every size for U <= 16)."""
    return [m for m in range(size + 1) if comb(size, m) <= 20_475]


class TestExactSearch:
    """One DP decides every exact size as the combinations scan does: the
    least popcount, the lex-first witness attaining it and C(U, m) instances."""

    @pytest.mark.parametrize("n,k", [
        (1, 1), (1, 5), (2, 1), (3, 1), (4, 1), (2, 2), (2, 3), (2, 4), (3, 2),
    ])
    def test_every_size_matches_the_combinations_scan(self, n, k):
        for r_del in range(k + 1):
            masks = child_masks(n, k, r_del)
            decided = verify._exact_search(masks, len(masks))
            assert len(decided) == len(masks) + 1
            for m in _enumerable_sizes(len(masks)):
                want = _reference_search(masks, n, k, m, r_del, EXHAUSTIVE)
                assert decided[m] == want, (r_del, m)
                assert verify._exact_search(masks, m)[m] == want, (r_del, m)


class TestSubcubeCheck:
    """check_a_t refuses sub-cubes too large to build and says when it skips
    the minimality search."""

    @pytest.mark.parametrize("n,k", [(30, 2), (1, 10 ** 9), (0, 10 ** 9)])
    def test_oversized_a_t_is_refused_before_any_work(self, monkeypatch, n, k):
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(extremal, "family_a_t", no_work)
        monkeypatch.setattr(shadow, "delta_r", no_work)
        with pytest.raises(ValueError, match=f"have over {A_T_MEMBER_LIMIT} members"):
            check_a_t(n, k, FAST_RANDOM)

    def test_cut_off(self, monkeypatch):
        # A_1, A_2 at n = 3 have 1 + 8 members; at n = 1, k = 4, 1 + 2 + 3 + 4.
        monkeypatch.setattr(verify, "A_T_MEMBER_LIMIT", 9)
        assert check_a_t(3, 2, FAST_RANDOM).ok
        with pytest.raises(ValueError, match="A_1..A_k at n=1, k=4 have over 9 members"):
            check_a_t(1, 4, FAST_RANDOM)

    @pytest.mark.parametrize("n,k,budget,why", [
        (2, 2, FAST_RANDOM, "mode 'random' is not exhaustive"),
        (2, 2, SearchBudget(mode="bounded"), "mode 'bounded' is not exhaustive"),
        (3, 3, EXHAUSTIVE, f"universe has 64 > {EXHAUSTIVE_UNIVERSE_LIMIT} elements"),
    ])
    def test_skipped_minimality_is_observed(self, n, k, budget, why):
        rep = check_a_t(n, k, budget)
        assert rep.ok
        assert rep.observations == [{"detail": f"minimality of A_t not searched: {why}"}]
        assert rep.instances_checked == k

    def test_searched_minimality_adds_no_observation(self):
        rep = check_a_t(2, 2, EXHAUSTIVE)
        assert (rep.ok, rep.observations) == (True, [])
        assert rep.instances_checked == 2 + comb(9, 1) + comb(9, 4)


class TestChecksCanFail:
    """Each check reports a violation when the thing it checks is wrong."""

    @pytest.fixture(autouse=True)
    def serial(self, monkeypatch):
        monkeypatch.setenv("DELSHADOW_THREADS", "1")

    def test_theorem1_against_a_wrong_closed_form(self, monkeypatch):
        right = extremal.min_delta_shadow_size
        monkeypatch.setattr(extremal, "min_delta_shadow_size", lambda n, k, m: right(n, k, m) + 1)
        rep = check_theorem1(2, 1, EXHAUSTIVE)
        details = [v["detail"] for v in rep.violations]
        assert len(details) == 5
        assert details[3] == "size 3: brute min 1 != closed form 2"

    def test_theorem2_against_a_wrong_segment_shadow(self, monkeypatch):
        # The oracle's child masks are built first, with the real children.
        masks = verify.child_masks(3, 1, 1)
        monkeypatch.setattr(verify, "child_masks", lambda n, k, r_del: masks)
        monkeypatch.setattr(shadow, "seq_children", lambda x, r_del: set())
        rep = check_theorem2(3, EXHAUSTIVE)
        details = [v["detail"] for v in rep.violations]
        assert len(details) == 8  # every size but m = 0
        assert all(d.endswith("!= simplicial 0") for d in details)

    def test_theorem2_oracle_shares_no_code_with_the_shadow_operator(self, monkeypatch):
        # child_masks builds its own children, so a shadow operator that
        # deletes nothing is caught by the brute-force minimum.
        monkeypatch.setattr(shadow, "seq_children", lambda x, r_del: set())
        rep = check_theorem2(3, EXHAUSTIVE)
        assert not rep.ok
        assert len(rep.violations) == 8

    def test_lemma7_against_a_lossy_compression(self, monkeypatch):
        right = extremal.compress

        def lossy(a, s, t):
            b = right(a, s, t)
            return Family.of(b.n, b.k, sorted(b.members)[1:])

        monkeypatch.setattr(extremal, "compress", lossy)
        rep = check_lemma7(SearchBudget(mode="random", samples=5, rng_seed=0))
        details = [v["detail"] for v in rep.violations]
        assert details.count("random: compress changed cardinality") == 5

    def test_lemma3_and_lemma6_against_a_wrong_colex_count(self, monkeypatch):
        right = extremal.ones_count_colex
        monkeypatch.setattr(extremal, "ones_count_colex", lambda n, r, m: right(n, r, m) + 1)
        rep = check_lemma3()
        details = [v["detail"] for v in rep.violations]
        assert rep.instances_checked == 114
        assert len(details) == 26  # every (n, r, m)
        assert details[:2] == [
            "n=1 r=1 m=1: brute 1 != colex count 2",
            "n=2 r=1 m=1: brute 1 != colex count 2",
        ]
        assert details[-1] == "n=4 r=4 m=1: brute 1 != colex count 2"
        rep = check_lemma6()
        details = [v["detail"] for v in rep.violations]
        assert rep.instances_checked == 568
        assert len(details) == 116
        assert details[:2] == [
            "n=1 k=1 label=() m=1: brute 1 != 2",
            "n=1 k=2 label=() m=1: brute 1 != 2",
        ]
        assert details[-1] == "n=4 k=2 label=() m=1: brute 1 != 2"

    def test_lemma8_against_a_compression_that_grows_the_shadow(self, monkeypatch):
        right = extremal.compress

        def grow(a, s, t):
            # The members with the most zeros, which have the largest shadows.
            b = right(a, s, t)
            universe = itertools.product(range(a.k + 1), repeat=a.n)
            return Family.of(a.n, a.k, sorted(universe, key=zero_count, reverse=True)[: len(b)])

        monkeypatch.setattr(extremal, "compress", grow)
        rep = check_lemma8(SearchBudget(samples=20))
        assert rep.instances_checked == 21836
        where = [v["detail"].split(":")[0] for v in rep.violations]
        counts = {w: where.count(w) for w in dict.fromkeys(where)}
        assert counts == {
            "n=1 k=1": 1, "n=2 k=1": 12, "n=3 k=1": 279, "n=1 k=2": 6,
            "n=2 k=2": 3540, "n=3 k=2": 7728, "random": 7,
        }
        assert rep.violations[0] == {
            "family": ["1"], "detail": "n=1 k=1: compress by s=(1,) t=() grew the shadow"
        }
        first_random = rep.violations[where.index("random")]
        assert first_random == {
            "family": ["2 2 2", "1 1 2", "2 1 1", "2 2 0", "0 1 2", "1 0 2", "2 0 1",
                       "2 1 0", "1 0 1", "0 2 0", "2 0 0", "0 0 0"],
            "detail": "random: compress by s=(2, 2) t=(1,) grew the shadow",
        }

    def test_prop10_against_inflated_low_counts(self, monkeypatch):
        right = verify.low_count
        monkeypatch.setattr(verify, "low_count", lambda x, r: right(x, r) + 1)
        rep = check_prop10(SearchBudget(samples=20))
        assert rep.instances_checked == 133163
        details = [v["detail"] for v in rep.violations]
        assert len(details) == 22834
        # Both the exhaustive and the random branch read the inflated counts.
        assert rep.violations[0] == {"family": ["0 0"], "detail": "n=2 k=1 r=0"}
        assert details.count("n=4 k=1 r=0") == 21182
        random_records = [v for v in rep.violations if v["detail"].startswith("random")]
        assert len(random_records) == 11
        assert random_records[0] == {
            "family": ["1 2 2", "2 1 2", "1 1 2", "2 2 1", "1 2 1", "2 1 1", "1 1 1",
                       "0 2 2", "2 0 2", "2 2 0", "0 1 2", "1 0 2", "1 2 0", "0 2 1",
                       "2 0 1", "2 1 0", "1 1 0", "0 2 0", "0 1 0", "1 0 0", "0 0 0"],
            "detail": "random n=3 k=2 r=2",
        }
