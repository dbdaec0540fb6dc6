"""Brute-force oracles and desk-scale checking suites.

The search core encodes each sequence as a base-(k+1) integer and precomputes,
per universe element, a bitmask of its deletion children over the length-(n-1)
universe.  A family's shadow size is then popcount(OR of masks).  One engine,
`_search_sizes`, searches the sizes of a sweep.  Where the budget asks for an
exact size and the universe has at most EXHAUSTIVE_UNIVERSE_LIMIT (27)
elements, one dynamic programme over (members chosen, OR of their masks),
`_exact_search`, decides every exact size of the sweep at once over all its
m-subsets.  Other sizes are searched over seeded random m-subsets, drawn by
one fused loop exactly as `random.Random.sample` draws them.  A check passes
each sampled size its value under test as a bound: a sample stops being
scored once it cannot beat the best, but is still drawn, so the stream and
every report are those of the unbounded search.  Universes over
SWEEP_UNIVERSE_LIMIT elements are refused before any work.  The lemma and
proposition sweeps read shadow sizes off the same child masks; there `Family`
is built only as the input of the system under test or as a witness, with
the plain, trusting constructor.
"""
from __future__ import annotations

import itertools
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import ceil, comb, inf, log
from typing import NamedTuple

from . import extremal, famio, orders, shadow
from .seqcore import Family, Seq, capped_pow, check_shape, low_count, place_label, zero_count

EXHAUSTIVE_UNIVERSE_LIMIT = 27


@dataclass(frozen=True)
class SearchBudget:
    """How hard to search: 'exhaustive' decides over every subset, 'bounded' is
    exhaustive for small (or co-small) sizes plus seeded random samples for the
    rest, 'random' samples only."""

    mode: str = "bounded"
    max_size: int = 6
    samples: int = 10_000
    rng_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "bounded", "random"):
            raise ValueError(f"unknown budget mode {self.mode!r}")
        if self.mode != "exhaustive" and self.samples <= 0:
            raise ValueError("samples must be positive outside exhaustive mode")
        if self.mode == "bounded" and self.max_size < 0:
            raise ValueError("max_size must be non-negative in bounded mode")


@dataclass
class VerificationReport:
    """One check's findings.  A violation refutes a proven claim; a note
    refutes nothing.  `run_suite` sets `elapsed`, the check's wall time in
    seconds; a direct `check_*` call leaves it at 0."""

    check: str
    params: dict
    instances_checked: int = 0
    violations: list = field(default_factory=list)
    observations: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self, include_elapsed: bool = True) -> dict:
        d = {
            "check": self.check,
            "params": self.params,
            "instances": self.instances_checked,
            "violations": self.violations,
            "observations": self.observations,
        }
        if include_elapsed:
            d["elapsed_ms"] = round(self.elapsed * 1000.0, 3)
        return d

    def violation(self, detail: str, family: Family | None = None) -> None:
        self.violations.append(self._finding(detail, family))

    def note(self, detail: str, family: Family | None = None) -> None:
        self.observations.append(self._finding(detail, family))

    @staticmethod
    def _finding(detail: str, family: Family | None) -> dict:
        """{"detail": ...}, after the family's members as text when one is given."""
        if family is None:
            return {"detail": detail}
        return {"family": [famio.format_sequence(x) for x in family], "detail": detail}


def worker_count() -> int:
    """Worker cap from DELSHADOW_THREADS; defaults to hardware parallelism."""
    env = os.environ.get("DELSHADOW_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"DELSHADOW_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Encoded universe


def universe_sequences(n: int, k: int) -> list[Seq]:
    return list(itertools.product(range(k + 1), repeat=n))


def encode(x: Seq, k: int) -> int:
    code = 0
    for e in x:
        code = code * (k + 1) + e
    return code


def decode(code: int, n: int, k: int) -> Seq:
    """The length-n sequence with base-(k+1) code `code` (inverse of encode)."""
    out = [0] * n
    for i in range(n - 1, -1, -1):
        code, out[i] = divmod(code, k + 1)
    return tuple(out)


def child_masks(n: int, k: int, r_del: int) -> list[int]:
    """mask[i] has bit encode(y) set for every deletion child y of sequence i.

    A child is found on the codes alone, apart from the shadow operator the
    oracle checks: deleting the entry of weight w = (k+1)^j from code c leaves
    (c // (w (k+1))) w + c % w.
    """
    base = k + 1
    masks = []
    for code in range(base ** n):
        m, w = 0, 1
        for _ in range(n):
            high, low = divmod(code, w * base)
            if low // w <= r_del:
                m |= 1 << (high * w + low % w)
            w *= base
        masks.append(m)
    return masks


def _shadow_masks(n: int, k: int, r_del: int) -> dict[Seq, int]:
    """Each sequence of {0,...,k}^n, in code order, mapped to its child mask."""
    return dict(zip(universe_sequences(n, k), child_masks(n, k, r_del)))


def _witness(n: int, k: int, codes: int) -> Family:
    """The family of the universe members whose codes are the set bits of
    `codes`."""
    bits = range(codes.bit_length())
    return Family(n, k, frozenset(decode(i, n, k) for i in bits if codes >> i & 1))


# ---------------------------------------------------------------------------
# The size-search engine

# child_masks holds U masks of (k+1)^(n-1) bits and a sweep visits U + 1
# sizes, so a sweep's memory and its shortest run grow as U^2.  At U = 4096,
# (n, k) = (12, 1), a one-sample random theorem1 sweep takes 2.5 s (2 vCPUs,
# Python 3.11).
SWEEP_UNIVERSE_LIMIT = 4096

# A sampled instance costs 0.6 us at U = 4 and 0.8-3.2 us for m = 3..20 at
# U = 27, or 0.4 us and 0.7-2.1 us under the closed form as a bound; a
# two-worker pool adds 15-20 ms to a sweep: start, masks in each worker, task
# traffic and shutdown (2 vCPUs, Python 3.11, fork).  With closed-form
# bounds, sampled sweeps break even there at 10 000-30 000 samples at (3, 2),
# 30 000-40 000 at (3, 1) and 150 000-250 000 at (2, 1).  Exact sizes never go
# to the pool: the DP decides all of them in 5-8 ms at U = 27.
POOL_MIN_SAMPLES = 33_334

# A sampled size m draws m members per sample.  One draw costs 0.19 us at
# (3, 2) and 0.31 us at (12, 1), or 0.14 and 0.21 us under the closed form as
# a bound (2 vCPUs, Python 3.11), so a sweep of more draws than this runs for
# minutes and is refused; the bounded (3, 2) sweeps of 40 000 samples make
# 7.56 M.
SAMPLE_DRAW_LIMIT = 1 << 28


class _Best(NamedTuple):
    """One size's search result: the least shadow found, a family attaining
    it as a bitmask of member codes, whether the search was exact, and its
    instance count: the samples drawn, or for an exact size the C(U, m)
    m-subsets that the DP decides over.  A sampled size searched under a
    bound reports only a value below it; when no sample goes below the
    bound, its value is the bound and its codes 0.  A mask, not a tuple of
    codes, because a sweep keeps one result per size: at (12, 1) the tuples
    of 4097 sizes held 357 MB."""

    value: int
    codes: int
    exact: bool
    instances: int


def _is_exact(budget: SearchBudget, size: int, m: int) -> bool:
    """Whether size m of a size-`size` universe is searched exhaustively."""
    return budget.mode == "exhaustive" or (
        budget.mode == "bounded" and min(m, size - m) <= budget.max_size
    )


def _sweep_universe(n: int, k: int) -> int:
    """The universe size (k+1)^n, refusing inputs no sweep can take."""
    check_shape(n, k)
    # Capped, a power that could take hours is never computed.
    size = capped_pow(k + 1, n, SWEEP_UNIVERSE_LIMIT)
    if size > SWEEP_UNIVERSE_LIMIT:
        raise ValueError(
            f"sweep infeasible: universe has {k + 1}^{n} > {SWEEP_UNIVERSE_LIMIT} elements"
        )
    return size


def _exhaustive_refusal(size: int) -> str | None:
    """Why no size of a size-`size` universe can be decided exactly; None
    when every size can."""
    if size > EXHAUSTIVE_UNIVERSE_LIMIT:
        return f"universe has {size} > {EXHAUSTIVE_UNIVERSE_LIMIT} elements"


def _sample_rng(seed: int, n: int, k: int, m: int, r_del: int) -> random.Random:
    # String seeding hashes with SHA-512 internally, so streams are stable
    # across platforms and independent per (n, k, m, r_del).
    return random.Random(f"{seed}:{n}:{k}:{m}:{r_del}")


def _seeded_sample(masks: list[int], n: int, k: int, m: int, r_del: int,
                   budget: SearchBudget, bound=inf) -> _Best:
    """A sampled size's search: `_sample_search` below `bound` over
    `budget.samples` random m-subsets, drawn from the stream that
    `_sample_rng` seeds for the size."""
    rng = _sample_rng(budget.rng_seed, n, k, m, r_del)
    return _sample_search(masks, m, rng, budget.samples, bound)


def _exact_search(masks: list[int], top: int) -> list[_Best]:
    """Least popcount of the OR of j masks over every j-subset, j = 0..top,
    each with the lexicographically first index tuple attaining it: what a
    scan of itertools.combinations(range(U), j) keeping strict improvements
    finds.

    One dynamic programme over the elements from the last to the first.  A
    state is (j chosen, OR of their masks), so states are at most
    (top + 1) * 2^bits for masks of `bits` bits (9 at U = 27), and each keeps
    the lex-first witness bitmask that reaches it.  Of two j-subsets, the
    lex-first holds the lowest element of their symmetric difference.  So
    taking element s, the lowest so far, always beats skipping it, and two
    take moves into one state are told apart by the lowest bit of their
    witnesses' symmetric difference.
    """
    size = len(masks)
    layers = [{0: 0}] + [{} for _ in range(top)]
    for s in range(size - 1, -1, -1):
        mask, bit = masks[s], 1 << s
        # Downwards in j, so each take move reads layer j - 1 before s joins it.
        for j in range(min(top, size - s), 0, -1):
            dst = layers[j]
            for acc, wit in layers[j - 1].items():
                acc |= mask
                wit |= bit
                old = dst.get(acc)
                if old is None or wit & (d := wit ^ old) & -d:
                    dst[acc] = wit
    results = []
    for j, layer in enumerate(layers):
        value, codes = inf, 0
        for acc, wit in layer.items():
            v = acc.bit_count()
            if v < value or v == value and wit & (d := wit ^ codes) & -d:
                value, codes = v, wit
        results.append(_Best(value, codes, True, comb(size, j)))
    return results


def _sample_search(masks: list[int], m: int, rng: random.Random, samples: int,
                   bound=inf) -> _Best:
    """Least popcount below `bound` of the OR of m masks over `samples` random
    m-subsets, with the first sample that reaches it; `bound` with codes 0
    when no sample goes below it.

    Each subset is the one `rng.sample(range(len(masks)), m)` would draw, from
    the same `getrandbits` calls: this is CPython's `Random.sample` (a partial
    Fisher-Yates shuffle over a pool for small populations, rejection into a
    set otherwise; Knuth, TAOCP Vol. 2, 3.4.2, Algorithm P) with
    `_randbelow_with_getrandbits` inlined, identical in Python 3.10 to 3.13.
    Each drawn mask is OR-ed in as it is drawn.  A sample that beats the best
    so far keeps its chosen set; the witness bitmask is built once, at the end,
    in O(m + U) by setting bits in a bytearray.

    The best starts at `bound`.  An OR only gains bits, so under a finite
    bound a pool sample stops scoring once its OR has as many bits as the
    best (branch and bound; Land and Doig, 1960), and its remaining draws
    only consume their words: the stream, and so every later subset, is the
    unbounded search's.  Without a bound the same loop scores each sample
    once, after its last draw: pruning against the running best popcounts
    every draw, which made `brute_force_min_shadow` at (12, 1), 20 samples
    of masks 2048 bits wide, 1.3x slower.
    """
    size = len(masks)
    getrandbits = rng.getrandbits
    setsize = 21  # Random.sample's size of a small set minus an empty list
    if m > 5:
        setsize += 4 ** ceil(log(m * 3, 4))
    best = bound
    chosen = ()
    if size <= setsize and m:
        # Pool: the draw from the first `limit` entries is swapped to the
        # pool's tail, so a sample's chosen set is pool[size - m:].  Size 0
        # has no first draw and takes the set loop, which draws nothing.
        base = list(range(size))
        tail = size - m
        limits = range(size, tail, -1)
        draws = list(zip(limits, map(int.bit_length, limits), range(size - 1, tail - 1, -1)))
        (first, first_bits, first_last), rest = draws[0], draws[1:]
        prune = bound < inf
        for _ in range(samples):
            j = getrandbits(first_bits)
            while j >= first:
                j = getrandbits(first_bits)
            acc = masks[j]
            todo = iter(rest)
            # A fresh pool maps j to j, so a sample that loses at its first
            # draw copies nothing.
            if not prune or acc.bit_count() < best:
                pool = base[:]
                pool[j] = first_last
                pool[first_last] = j
                for limit, bits, last in todo:
                    j = getrandbits(bits)
                    while j >= limit:
                        j = getrandbits(bits)
                    x = pool[j]
                    pool[j] = pool[last]
                    pool[last] = x
                    acc |= masks[x]
                    if prune and acc.bit_count() >= best:
                        break
                else:
                    v = acc.bit_count()
                    if v < best:
                        best, chosen = v, pool[tail:]
                    continue
            for limit, bits, _ in todo:
                while getrandbits(bits) >= limit:
                    pass
    else:
        bits = size.bit_length()
        picks = range(m)
        for _ in range(samples):
            selected = set()
            add = selected.add
            acc = 0
            for _ in picks:
                j = getrandbits(bits)
                while j >= size or j in selected:
                    j = getrandbits(bits)
                add(j)
                acc |= masks[j]
            v = acc.bit_count()
            if v < best:
                best, chosen = v, selected
    witness = bytearray(size // 8 + 1)
    for i in chosen:
        witness[i >> 3] |= 1 << (i & 7)
    return _Best(best, int.from_bytes(witness, "little"), False, samples)


# Set by the pool initializer, in worker processes only.
_worker_masks: list[int] = []


def _load_worker_masks(n: int, k: int, r_del: int) -> None:
    global _worker_masks
    _worker_masks = child_masks(n, k, r_del)


def _worker_search(args) -> _Best:
    return _seeded_sample(_worker_masks, *args)


def _search_sizes(n: int, k: int, r_del: int, sizes, budget: SearchBudget,
                  bounds=None) -> list[_Best]:
    """Search every size in `sizes` and return one result per size, in order.

    Repeated sizes are searched once: the search of a size is deterministic.
    `bounds`, one per size, are the values under test: a sampled size reports
    only a value below the largest bound among its occurrences, and that
    bound otherwise (see `_sample_search`); a count that differs from the
    sizes' is refused.  Exact sizes ignore them.
    All exact sizes are decided in-process by one `_exact_search`.  Sampled
    sizes with fewer than POOL_MIN_SAMPLES samples in total run in-process;
    more are spread over a process pool, largest first, with the masks built
    once per worker.  Every refusal comes before any work, including a
    sampled search of over SAMPLE_DRAW_LIMIT draws.
    """
    size = _sweep_universe(n, k)
    distinct = list(dict.fromkeys(sizes))
    bound = dict.fromkeys(distinct, -inf)
    if bounds is None:
        bounds = [inf] * len(sizes)
    for m, b in zip(sizes, bounds, strict=True):
        bound[m] = max(bound[m], b)
    exact, sampled = [], []
    for m in distinct:
        if not (0 <= m <= size):
            raise ValueError(f"size {m} not in [0, {size}]")
        if not _is_exact(budget, size, m):
            sampled.append(m)
        elif why := _exhaustive_refusal(size):
            raise ValueError(f"exhaustive search infeasible: {why}")
        else:
            exact.append(m)
    draws = budget.samples * sum(sampled)
    if draws > SAMPLE_DRAW_LIMIT:
        raise ValueError(
            f"sampled search infeasible: {budget.samples} samples of sizes summing to "
            f"{sum(sampled)} make {draws} > {SAMPLE_DRAW_LIMIT} draws"
        )
    workers = min(worker_count(), len(sampled))
    pooled = workers > 1 and len(sampled) * budget.samples >= POOL_MIN_SAMPLES
    found = {}
    if exact or not pooled:
        masks = child_masks(n, k, r_del)
    if exact:
        decided = _exact_search(masks, max(exact))
        found.update((m, decided[m]) for m in exact)
    if pooled:
        order = sorted(sampled, reverse=True)
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_load_worker_masks, initargs=(n, k, r_del)
        ) as pool:
            tasks = [(n, k, m, r_del, budget, bound[m]) for m in order]
            found.update(zip(order, pool.map(_worker_search, tasks)))
    else:
        found.update((m, _seeded_sample(masks, n, k, m, r_del, budget, bound[m]))
                     for m in sampled)
    return [found[m] for m in sizes]


@dataclass(frozen=True)
class BruteForceResult:
    value: int
    witness: Family
    exact: bool
    instances_checked: int


def brute_force_min_shadow(
    n: int, k: int, m: int, r_del: int, budget: SearchBudget
) -> BruteForceResult:
    """Minimum |delta_r A| over size-m families, exact in exhaustive sweeps and
    a sampled upper bound otherwise (exact=False)."""
    (res,) = _search_sizes(n, k, r_del, [m], budget)
    return BruteForceResult(res.value, _witness(n, k, res.codes), res.exact, res.instances)


# ---------------------------------------------------------------------------
# Theorem-level checks


def _sweep_sizes(rep, n, k, r_del, budget, expected, what) -> VerificationReport:
    """Brute-force minimum of |delta_r A| at every size m against expected(m);
    `what` names the expected value in the violation texts.  A sampled size
    is searched below its expected value: only a value below it is a
    violation."""
    sizes = range(_sweep_universe(n, k) + 1)
    wants = [expected(m) for m in sizes]
    for m, want, res in zip(sizes, wants, _search_sizes(n, k, r_del, sizes, budget, wants)):
        rep.instances_checked += res.instances
        if res.exact and res.value != want:
            detail = f"size {m}: brute min {res.value} != {what} {want}"
        elif not res.exact and res.value < want:
            detail = f"size {m}: sampled family beats {what} {want}"
        else:
            continue
        rep.violation(detail, _witness(n, k, res.codes))
    return rep


def check_theorem1(n: int, k: int, budget: SearchBudget) -> VerificationReport:
    """Per-size brute-force minimum of |delta A| against the closed form."""
    rep = VerificationReport("theorem1", {"n": n, "k": k, "mode": budget.mode})
    return _sweep_sizes(
        rep, n, k, 0, budget, lambda m: extremal.min_delta_shadow_size(n, k, m), "closed form"
    )


def check_theorem2(n: int, budget: SearchBudget) -> VerificationReport:
    """Simplicial initial segments minimise the full deletion shadow on {0,1}^n."""
    rep = VerificationReport("theorem2", {"n": n, "k": 1, "mode": budget.mode})
    _sweep_universe(n, 1)  # refuse before streaming {0,1}^n
    # Each segment is a prefix of the order, so its shadow grows by one
    # member's shadow per size.
    seen: set[Seq] = set()
    seg_shadow = [0]
    for x in orders.iter_simplicial(n):
        seen |= shadow.seq_children(x, 1)
        seg_shadow.append(len(seen))
    return _sweep_sizes(rep, n, 1, 1, budget, seg_shadow.__getitem__, "simplicial")


def check_conjecture1(n: int, k: int, budget: SearchBudget) -> VerificationReport:
    """Compare |Delta B_{r,t}| against the brute-force minimum.  A strict gap is
    an open-conjecture observation, never a violation."""
    rep = VerificationReport("conjecture1", {"n": n, "k": k, "mode": budget.mode})
    _sweep_universe(n, k)  # refuse before building any B_{r,t}
    cases = []
    for r in range(k + 1):
        for t in range(k + 1):
            b = extremal.family_b_rt(n, k, r, t)
            cases.append((r, t, len(b), len(shadow.delta_r(b, k))))
    results = _search_sizes(n, k, k, [m for _, _, m, _ in cases], budget,
                            [actual for *_, actual in cases])
    for (r, t, m, actual), res in zip(cases, results):
        rep.instances_checked += res.instances
        if res.value < actual:
            rep.note(f"r={r} t={t}: family of size {m} has Delta-shadow {res.value} "
                     f"< |Delta B_rt| = {actual}", _witness(n, k, res.codes))
        else:
            rep.note(f"r={r} t={t}: consistent at this scale (|B|={m}, shadow {actual})")
    return rep


# check_a_t builds every A_t, t = 1..k, and its Delta-shadow: sum of t^n
# members, at least k and at least k^n.  Under this limit, `delshadow verify
# --suite a_t` took 6.4 s / 109 MB at (n, k) = (18, 2), 4.5 s / 100 MB at
# (8, 5), 3.1 s / 74 MB at (7, 6) and 1.0-1.6 s / 77 MB at (1, 1023) and
# (3, 37) (one process, 2 vCPUs, Python 3.11).
A_T_MEMBER_LIMIT = 1 << 19


def check_a_t(n: int, k: int, budget: SearchBudget) -> VerificationReport:
    """|Delta A_t| = t^(n-1), with exhaustive minimality where feasible; an
    observation says why when minimality is not searched."""
    rep = VerificationReport("a_t", {"n": n, "k": k, "mode": budget.mode})
    if k < 2:
        raise ValueError("the sub-cube check needs k >= 2")
    # The sum has k terms, so the first test bounds its loop; capped_pow
    # computes no power past the limit.
    if n >= 0 and (
        k > A_T_MEMBER_LIMIT
        or sum(capped_pow(t, n, A_T_MEMBER_LIMIT) for t in range(1, k + 1)) > A_T_MEMBER_LIMIT
    ):
        raise ValueError(
            f"a_t infeasible: A_1..A_k at n={n}, k={k} have over {A_T_MEMBER_LIMIT} members"
        )
    cases = []
    for t in range(1, k + 1):
        at = extremal.family_a_t(n, k, t)
        cases.append((t, at, len(shadow.delta_r(at, k))))
    why = (_exhaustive_refusal((k + 1) ** n) if budget.mode == "exhaustive"
           else f"mode {budget.mode!r} is not exhaustive")
    if why is None:
        results = _search_sizes(n, k, k, [t ** n for t, _, _ in cases], budget)
    else:
        results = [None] * len(cases)
        rep.note(f"minimality of A_t not searched: {why}")
    for (t, at, actual), res in zip(cases, results):
        rep.instances_checked += 1
        if actual != t ** (n - 1):
            rep.violation(f"t={t}: |Delta A_t| = {actual} != {t ** (n - 1)}", at)
        if res is not None:
            rep.instances_checked += res.instances
            if res.value < actual:
                rep.violation(f"t={t}: family beats A_t ({res.value} < {actual})",
                              _witness(n, k, res.codes))
    return rep


# ---------------------------------------------------------------------------
# Lemma and proposition sweeps


def _shadow_size(masks, keys) -> int:
    """|delta_r A|: the popcount of the OR of masks[x] over A's members or codes x."""
    acc = 0
    for key in keys:
        acc |= masks[key]
    return acc.bit_count()


def _check_colex_minima(rep, masks, n, r, where, what) -> None:
    """The least shadow of every m-subset of the members with child masks
    `masks`, m >= 1, decided by `_exact_search`, against the colex count."""
    for m, best in enumerate(_exact_search(masks, len(masks))[1:], start=1):
        rep.instances_checked += best.instances
        expected = extremal.ones_count_colex(n, r, m)
        if best.value != expected:
            rep.violation(f"{where} m={m}: brute {best.value} != {what}{expected}")


def check_lemma3() -> VerificationReport:
    """Colex initial segments minimise delta inside one {0,1}^n level."""
    rep = VerificationReport("lemma3", {"n_max": 4})
    for n in range(1, 5):
        masks = _shadow_masks(n, 1, 0)
        for r in range(1, n + 1):
            level = [mask for x, mask in masks.items() if zero_count(x) == r]
            _check_colex_minima(rep, level, n, r, f"n={n} r={r}", "colex count ")
    return rep


def colex_level_shadow_sizes(n: int, r: int) -> list[int]:
    """|delta A_m| for the colex initial families A_m of the r-zeros level,
    computed by direct incremental deletion (the enumerate-and-delete oracle)."""
    seen: set[tuple[int, ...]] = set()
    sizes = [0]
    for zeros in orders.colex_combinations(n, r):
        zs = set(zeros)
        for i in zeros:
            child = tuple(sorted((j if j < i else j - 1) for j in zs if j != i))
            seen.add(child)
        sizes.append(len(seen))
    return sizes


LEMMA4_N_MAX = 10


def check_lemma4() -> VerificationReport:
    """ones_count_colex agrees with direct shadow sizes of colex families."""
    rep = VerificationReport("lemma4", {"n_max": LEMMA4_N_MAX})
    for n in range(1, LEMMA4_N_MAX + 1):
        for r in range(1, n + 1):
            sizes = colex_level_shadow_sizes(n, r)
            for m, direct in enumerate(sizes):
                rep.instances_checked += 1
                expected = extremal.ones_count_colex(n, r, m)
                if direct != expected:
                    rep.violation(f"n={n} r={r} m={m}: direct {direct} != recursion {expected}")
    return rep


def check_lemma6() -> VerificationReport:
    """Every component behaves like the all-ones one: colex pieces of any
    component achieve the brute-force minimum shadow inside the component."""
    rep = VerificationReport("lemma6", {"n_max": 4, "k_max": 2})
    for n in range(1, 5):
        for k in (1, 2):
            masks = _shadow_masks(n, k, 0)
            for zc in range(1, n + 1):
                for label in orders.level_labels(n, k, zc):
                    level = [masks[place_label(label, zeros)]
                             for zeros in orders.colex_combinations(n, zc)]
                    _check_colex_minima(rep, level, n, zc, f"n={n} k={k} label={label}", "")
    return rep


def _compression_pairs(n: int, k: int, cross_level: bool):
    """The valid (s, t) label pairs: cross level with len(t) = len(s) - 1, or
    same level with s <_c t."""
    levels = [tuple(orders.level_labels(n, k, zc)) for zc in range(n + 1)]
    if cross_level:
        return [(s, t) for zc in range(1, n + 1) for s in levels[zc - 1] for t in levels[zc]]
    return [(s, t) for labels in levels for i, s in enumerate(labels) for t in labels[i + 1:]]


def _sweep_compress(rep, masks, families, pairs, label):
    """|delta compress(A, s, t)| <= |delta A|, both from radius-0 child masks."""
    for a in families:
        base = _shadow_size(masks, a.members)
        for s, t in pairs:
            b = extremal.compress(a, s, t)
            rep.instances_checked += 1
            if len(b) != len(a):
                rep.violation(f"{label}: compress changed cardinality", a)
            if _shadow_size(masks, b.members) > base:
                rep.violation(f"{label}: compress by s={s} t={t} grew the shadow", a)


def _random_label(rng: random.Random, k: int, length: int) -> Seq:
    return tuple(rng.randint(1, k) for _ in range(length))


def _random_compress_instance(rng: random.Random, cross_level: bool):
    """One random (n, k, member codes, s, t) respecting the compression preconditions."""
    while True:
        n = rng.randint(3, 5)
        k = rng.randint(1, 3)
        if cross_level:
            ls = rng.randint(1, n)
            s = _random_label(rng, k, ls)
            t = _random_label(rng, k, ls - 1)
        else:
            if k == 1:
                continue  # one label per level: no same-level pairs
            length = rng.randint(1, n)
            s = _random_label(rng, k, length)
            t = _random_label(rng, k, length)
            if s == t:
                continue
            if orders.c_key(t, k) < orders.c_key(s, k):
                s, t = t, s
        size = (k + 1) ** n
        # Draws the indices rng.sample(universe, m) would draw.
        return n, k, rng.sample(range(size), rng.randint(1, size - 1)), s, t


def check_lemma7(budget: SearchBudget) -> VerificationReport:
    """|delta compress(A, s, t)| <= |delta A| for same-level compressions."""
    return _check_compress_monotone(budget, "lemma7", cross_level=False)


def check_lemma8(budget: SearchBudget) -> VerificationReport:
    """|delta compress(A, s, t)| <= |delta A| for cross-level compressions."""
    return _check_compress_monotone(budget, "lemma8", cross_level=True)


def _check_compress_monotone(budget, name, cross_level) -> VerificationReport:
    rep = VerificationReport(name, {"mode": budget.mode})
    # Every family over small (n, k); at (3, 2), where 2^27 families is out of
    # desk scale, every family of size 1 or 2.
    for n, k in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)):
        pairs = _compression_pairs(n, k, cross_level)
        if pairs:
            masks = _shadow_masks(n, k, 0)
            sizes = (1, 2) if (n, k) == (3, 2) else range(len(masks) + 1)
            families = (Family(n, k, frozenset(sub))
                        for m in sizes for sub in itertools.combinations(masks, m))
            _sweep_compress(rep, masks, families, pairs, f"n={n} k={k}")
    # Seeded random larger instances.
    rng = random.Random(f"{budget.rng_seed}:{name}")
    tables = {}
    for _ in range(budget.samples):
        n, k, codes, s, t = _random_compress_instance(rng, cross_level)
        if (n, k) not in tables:
            masks = _shadow_masks(n, k, 0)
            tables[n, k] = list(masks), masks
        universe, masks = tables[n, k]
        a = Family(n, k, frozenset(universe[i] for i in codes))
        _sweep_compress(rep, masks, [a], [(s, t)], "random")
    return rep


LEMMA9_N_MAX = 8


def check_lemma9() -> VerificationReport:
    """The four segment-counting claims, exhaustively over all segment sizes."""
    rep = VerificationReport("lemma9", {"n_max": LEMMA9_N_MAX})
    oc = extremal.ones_count_colex
    for n in range(1, LEMMA9_N_MAX + 1):
        for r in range(1, n + 1):
            layer = comb(n, r)
            oc_table = [oc(n, r, m) for m in range(layer + 1)]
            # Claim 1 and Claim 3: all segments vs initial / co-initial segments.
            for lower in range(layer + 1):
                for upper in range(lower, layer + 1):
                    q = upper - lower
                    seg_ones = oc_table[upper] - oc_table[lower]
                    rep.instances_checked += 1
                    if seg_ones > oc_table[q]:
                        rep.violation(f"claim1 n={n} r={r} seg=({lower},{upper})")
                    co_ones = comb(n - 1, r - 1) - oc_table[layer - q]
                    if seg_ones < co_ones:
                        rep.violation(f"claim3 n={n} r={r} seg=({lower},{upper})")
            # Claims 2 and 4: adjacent layers at equal sizes.
            if r < n:
                upper_layer = comb(n, r + 1)
                for m in range(min(layer, upper_layer) + 1):
                    rep.instances_checked += 1
                    if oc(n, r, m) > oc(n, r + 1, m):
                        rep.violation(f"claim2 n={n} r={r} m={m}")
                    lo = extremal.co_initial_ones_count(n, r, m)
                    hi = extremal.co_initial_ones_count(n, r + 1, m)
                    if lo > hi:
                        rep.violation(f"claim4 n={n} r={r} m={m}")
    return rep


def check_prop10(budget: SearchBudget) -> VerificationReport:
    """|delta_r A| * n * (r+1) >= sum of low-coordinate counts, for every subset
    of the small universes and seeded random larger families."""
    rep = VerificationReport("prop10", {"mode": budget.mode})
    tables = {}

    def check(n, k, r, codes, label):
        if (n, k, r) not in tables:
            universe = universe_sequences(n, k)
            tables[n, k, r] = universe, child_masks(n, k, r), [low_count(x, r) for x in universe]
        universe, masks, lows = tables[n, k, r]
        rep.instances_checked += 1
        if _shadow_size(masks, codes) * n * (r + 1) < sum(lows[i] for i in codes):
            rep.violation(label, Family(n, k, frozenset(universe[i] for i in codes)))

    for n, k in ((2, 1), (3, 1), (4, 1), (2, 2)):
        size = (k + 1) ** n
        for r in range(k + 1):
            for m in range(1, size + 1):
                for codes in itertools.combinations(range(size), m):
                    check(n, k, r, codes, f"n={n} k={k} r={r}")
    rng = random.Random(f"{budget.rng_seed}:prop10")
    for _ in range(budget.samples):
        n = rng.randint(3, 5)
        k = rng.randint(1, 3)
        r = rng.randint(0, k)
        size = (k + 1) ** n
        # Draws the indices rng.sample(universe, m) would draw.
        codes = rng.sample(range(size), rng.randint(1, size))
        check(n, k, r, codes, f"random n={n} k={k} r={r}")
    return rep


def check_corollary11() -> VerificationReport:
    """Level unions meet the rational bound with equality and match the
    closed-form level-size formula; equality is unique at desk scale."""
    rep = VerificationReport("corollary11", {"n_max": 5, "k_max": 3})
    for n in range(1, 6):
        for k in range(1, 4):
            for r in range(k):
                for s in range(n + 1):
                    fam = extremal.family_l_leq(n, k, r, s)
                    direct = len(shadow.delta_r(fam, r))
                    closed = extremal.l_leq_shadow_size(n, k, r, s)
                    bound = extremal.prop10_lower_bound(fam, r)
                    rep.instances_checked += 1
                    if direct != closed or bound != closed:
                        rep.violation(f"n={n} k={k} r={r} s={s}: direct {direct}, "
                                      f"closed {closed}, bound {bound}")
    # Uniqueness of the equality case, exhaustively on tiny universes.
    for n, k in ((2, 1), (2, 2), (3, 1)):
        universe = universe_sequences(n, k)
        for r in range(k):
            masks = child_masks(n, k, r)
            for s in range(n + 1):
                target = extremal.family_l_leq(n, k, r, s)
                m = len(target)
                if m == 0:
                    continue
                opt = extremal.l_leq_shadow_size(n, k, r, s)
                for idx in itertools.combinations(range(len(universe)), m):
                    fam_members = frozenset(universe[i] for i in idx)
                    rep.instances_checked += 1
                    val = _shadow_size(masks, idx)
                    if val < opt or (val == opt and fam_members != target.members):
                        rep.violation(f"uniqueness n={n} k={k} r={r} s={s}: shadow {val} vs {opt}",
                                      Family(n, k, fam_members))
    return rep


def check_degree_identity() -> VerificationReport:
    """In the deletion multigraph every length-(n-1) sequence has degree n(r+1)."""
    rep = VerificationReport("degree_identity", {"n_max": 4, "k_max": 3})
    for n in range(1, 5):
        for k in range(1, 4):
            for r in range(k + 1):
                degrees: dict[Seq, int] = {}
                for x in itertools.product(range(k + 1), repeat=n):
                    for i, e in enumerate(x):
                        if e <= r:
                            y = x[:i] + x[i + 1:]
                            degrees[y] = degrees.get(y, 0) + 1
                expected = n * (r + 1)
                for y in itertools.product(range(k + 1), repeat=n - 1):
                    rep.instances_checked += 1
                    if degrees.get(y, 0) != expected:
                        rep.violation(f"n={n} k={k} r={r} y={y}: degree "
                                      f"{degrees.get(y, 0)} != {expected}")
    return rep


# ---------------------------------------------------------------------------
# Suite runner

# name -> (runner(budget, n, k), default (n, k)); a runner drops what its
# check does not take.  The key order is ALL_CHECKS: proven checks, then open ones.
# Runners look the check up when called, so a replaced module attribute is used.
_SUITE = {
    "theorem1": (lambda b, n, k: check_theorem1(n, k, b), (3, 1)),
    "theorem2": (lambda b, n, k: check_theorem2(n, b), (3, 1)),
    "lemma3": (lambda b, n, k: check_lemma3(), (None, None)),
    "lemma4": (lambda b, n, k: check_lemma4(), (None, None)),
    "lemma6": (lambda b, n, k: check_lemma6(), (None, None)),
    "lemma7": (lambda b, n, k: check_lemma7(b), (None, None)),
    "lemma8": (lambda b, n, k: check_lemma8(b), (None, None)),
    "lemma9": (lambda b, n, k: check_lemma9(), (None, None)),
    "prop10": (lambda b, n, k: check_prop10(b), (None, None)),
    "corollary11": (lambda b, n, k: check_corollary11(), (None, None)),
    "degree_identity": (lambda b, n, k: check_degree_identity(), (None, None)),
    "a_t": (lambda b, n, k: check_a_t(n, k, b), (2, 2)),
    "conjecture1": (lambda b, n, k: check_conjecture1(n, k, b), (2, 2)),
}
OPEN_CHECKS = ("conjecture1",)
ALL_CHECKS = tuple(_SUITE)
PROVEN_CHECKS = tuple(c for c in ALL_CHECKS if c not in OPEN_CHECKS)


def run_suite(
    names: list[str],
    budget: SearchBudget,
    n: int | None = None,
    k: int | None = None,
) -> list[VerificationReport]:
    """Run named checks, each report timed in `elapsed`; parameterised checks
    use (n, k) when given, else their desk-scale defaults."""
    worker_count()  # reject a malformed DELSHADOW_THREADS before any check runs
    for name in names:
        if name not in _SUITE:
            raise ValueError(f"unknown check {name!r}; expected one of {sorted(ALL_CHECKS)}")
    reports = []
    for name in names:
        runner, (n0, k0) = _SUITE[name]
        t0 = time.monotonic()
        rep = runner(budget, n0 if n is None else n, k0 if k is None else k)
        rep.elapsed = time.monotonic() - t0
        reports.append(rep)
    return reports
