"""The three rainbow counters against each other and against definitions."""
import dataclasses
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidonrainbow import counting, enumeration, repfn
from sidonrainbow.core import ClassBreakdown, Coloring, Domain, make_quad, mod_coloring, random_coloring
from sidonrainbow.counting import (
    count_rainbow_cyclic_fast,
    count_rainbow_cyclic_naive,
    count_rainbow_fast,
    count_rainbow_naive,
    non_rainbow_lower_bound,
    rainbow_via_energy,
)
from sidonrainbow.enumeration import SCAN_CEILING, f_n_exact, modular_count_formula, total_quads_formula
from sidonrainbow.repfn import IntSet, additive_energy


def n_and_k(lo, hi):
    # k from 1..8, or anywhere up to n: k > 8, and k >= n/2 where most
    # classes are empty or singletons
    return st.integers(lo, hi).flatmap(
        lambda n: st.tuples(st.just(n), st.one_of(st.integers(1, 8), st.integers(1, n)))
    )


def brute_breakdown(c):
    # definition-level recount over raw 4-subsets
    tallies = [0] * 5
    for sub in itertools.combinations(range(1, c.n + 1), 4):
        q = make_quad(*sub, c.n)
        if q is not None:
            tallies[len({c.colors[x - 1] for x in sub})] += 1
    return ClassBreakdown(
        rainbow=tallies[4], monochromatic=tallies[1], two_colored=tallies[2], three_colored=tallies[3]
    )


def test_constant_coloring_has_no_rainbow():
    c = Coloring(Domain.INTERVAL, 30, 4, (2,) * 30)
    bd = count_rainbow_naive(c)
    assert bd.rainbow == 0
    assert bd.monochromatic == bd.total == total_quads_formula(30)
    assert count_rainbow_fast(c) == 0


def test_mod4_interval_spot():
    bd = count_rainbow_naive(mod_coloring(8, 4))
    assert bd.rainbow == 10
    assert bd.total == total_quads_formula(8)


def test_naive_matches_subset_scan():
    for seed in range(6):
        c = random_coloring(13, 4, seed)
        assert count_rainbow_naive(c) == brute_breakdown(c)


@pytest.mark.parametrize("n", range(1, 15))
def test_naive_breakdown_matches_definition(n):
    for k in sorted({*range(1, 13), n}):
        for seed in range(3):
            c = random_coloring(n, k, seed)
            assert count_rainbow_naive(c) == brute_breakdown(c)


def test_cyclic_naive_tallies_match_definition():
    # every tally of the Z_n scan against a recount over its balanced pairings
    for n in range(1, 19):
        quads = enumeration.enumerate_modular_quads(n)
        for k in sorted({*range(1, 13), n}):
            for seed in range(3):
                c = random_coloring(n, k, seed, Domain.CYCLIC)
                tallies = [0] * 5
                for q in quads:
                    tallies[len({c.colors[r - 1] for r in q.pair_a + q.pair_b})] += 1
                assert counting._naive_tallies(c, cyclic=True) == tallies, (n, k, seed)


@pytest.mark.parametrize("n", range(8, 25))
def test_naive_scans_keep_wide_color_labels(n):
    # labels past 8 bits that agree in their low byte: a scan that narrowed
    # colors to uint8 would see one color
    rng = random.Random(n)
    cols = tuple(rng.choice((1, 257, 513, 769)) for _ in range(n))
    flat = Coloring(Domain.INTERVAL, n, 1000, cols)
    assert count_rainbow_naive(flat) == brute_breakdown(flat)
    cyc = Coloring(Domain.CYCLIC, n, 1000, cols)
    assert count_rainbow_cyclic_naive(cyc) == count_rainbow_cyclic_fast(cyc)


def test_naive_scans_rank_past_256_colors():
    # 280 colors, every one present, take uint16 ranks
    rng = random.Random(280)
    cols = list(range(1, 281)) + [rng.randint(1, 280) for _ in range(20)]
    rng.shuffle(cols)
    flat = Coloring(Domain.INTERVAL, 300, 280, tuple(cols))
    bd = count_rainbow_naive(flat)
    assert bd.rainbow == count_rainbow_fast(flat)
    assert bd.total == total_quads_formula(300)
    cyc = Coloring(Domain.CYCLIC, 300, 280, tuple(cols))
    assert count_rainbow_cyclic_naive(cyc) == count_rainbow_cyclic_fast(cyc)


@pytest.mark.parametrize("n", [15, 31, 60])
def test_naive_scans_match_fast_counters_at_every_color_count(n):
    for k in sorted({*range(1, 13), n}):
        c = random_coloring(n, k, n + k)
        assert count_rainbow_naive(c).rainbow == count_rainbow_fast(c)
        cyc = random_coloring(n, k, n + k, Domain.CYCLIC)
        assert count_rainbow_cyclic_naive(cyc) == count_rainbow_cyclic_fast(cyc)


@pytest.mark.parametrize(
    "count, domain, k",
    [
        (count_rainbow_naive, Domain.INTERVAL, 4),
        (count_rainbow_naive, Domain.INTERVAL, 12),
        (count_rainbow_cyclic_naive, Domain.CYCLIC, 4),
        (count_rainbow_cyclic_naive, Domain.CYCLIC, 12),
        (count_rainbow_fast, Domain.INTERVAL, 4),
        (count_rainbow_cyclic_fast, Domain.CYCLIC, 4),
        (rainbow_via_energy, Domain.INTERVAL, 4),
    ],
)
def test_counters_return_python_ints(count, domain, k):
    # numpy integers would not serialize: json.dumps raises on numpy.int64
    out = count(random_coloring(30, k, 1, domain))
    values = dataclasses.astuple(out) if dataclasses.is_dataclass(out) else (out,)
    assert all(type(v) is int for v in values), [type(v) for v in values]
    json.dumps(values)


def test_naive_scan_counts_every_quad_once():
    # the total is the scan's own count of the pairs of pairs it classified
    for n in range(1, 81):
        assert count_rainbow_naive(random_coloring(n, 3, n)).total == total_quads_formula(n)


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_naive_scans_match_across_block_budgets(monkeypatch, budget):
    # budgets this small split each slab's offsets into many blocks, cut at
    # row ends and across the past-the-end marks; 8 and 9 colors sit on
    # either side of the one-byte color sets
    cases = [(n, k, n + k) for n in (1, 2, 5, 9, 14, 23, 41, 60) for k in (2, 5, 8, 9, n)]
    want = [
        (count_rainbow_naive(random_coloring(n, k, s)), count_rainbow_cyclic_naive(random_coloring(n, k, s, Domain.CYCLIC)))
        for n, k, s in cases
    ]
    monkeypatch.setattr(counting, "_SCAN_BYTES", budget)
    for (n, k, seed), (flat, cyc) in zip(cases, want):
        c = random_coloring(n, k, seed)
        assert count_rainbow_naive(c) == (brute_breakdown(c) if n <= 14 else flat)
        assert count_rainbow_cyclic_naive(random_coloring(n, k, seed, Domain.CYCLIC)) == cyc


@given(n_and_k(4, 60), st.integers(0, 10**6))
@example((60, 60), 0)
@example((41, 27), 1)
@example((33, 12), 2)
@settings(max_examples=60, deadline=None)
def test_fast_matches_naive(nk, seed):
    n, k = nk
    c = random_coloring(n, k, seed)
    bd = count_rainbow_naive(c)
    assert bd.total == total_quads_formula(n)
    assert count_rainbow_fast(c) == bd.rainbow


@given(st.integers(4, 50), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_energy_matches_naive_k4(n, seed):
    c = random_coloring(n, 4, seed)
    assert rainbow_via_energy(c) == count_rainbow_naive(c).rainbow


def energy_folds(c):
    """The energy identity by additive_energy's own folds: the sum over the
    three splits {a, b} | {p, q} of E_4(X_a, X_b, -X_p, -X_q)."""
    sets = [IntSet(x for x in range(1, c.n + 1) if c.colors[x - 1] == i) for i in range(1, 5)]
    neg = [IntSet(-x for x in s) for s in sets]
    splits = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
    return sum(additive_energy([sets[a], sets[b], neg[p], neg[q]]) for (a, b), (p, q) in splits)


def unused_color(n, seed):
    # a 4-coloring that leaves color seed % 4 + 1 unused
    rng = random.Random(seed)
    return Coloring(Domain.INTERVAL, n, 4, tuple(rng.choice([i for i in range(1, 5) if i != seed % 4 + 1]) for _ in range(n)))


@pytest.mark.parametrize(
    "c",
    [random_coloring(n, 4, seed) for n in range(1, 9) for seed in range(8)]
    + [random_coloring(n, 4, seed) for n, seed in ((9, 1), (64, 2), (65, 3), (500, 4), (1023, 5), (2000, 6))]
    + [mod_coloring(2000, 4)]
    + [unused_color(n, seed) for n, seed in ((8, 0), (300, 1), (2000, 2))],
    ids=lambda c: f"n={c.n}",
)
def test_energy_route_matches_the_energy_folds(c):
    assert rainbow_via_energy(c) == energy_folds(c)


def test_energy_route_runs_without_the_folds(monkeypatch):
    # counting takes nothing from repfn: the transform's cross-sum profiles alone
    assert all(getattr(v, "__module__", None) != repfn.__name__ for v in vars(counting).values())
    cases = [random_coloring(n, 4, 7) for n in (12, 300, 5000)] + [mod_coloring(10**5, 4), random_coloring(10**5, 4, 1)]
    want = [count_rainbow_fast(c) for c in cases]
    assert want[-2:] == [20833333325000, 7811742474458]
    monkeypatch.setattr(repfn, "additive_energy", lambda sets: pytest.fail("energy fold used"))
    assert [rainbow_via_energy(c) for c in cases] == want


def test_energy_requires_four_colors():
    with pytest.raises(ValueError, match="4 colors"):
        rainbow_via_energy(random_coloring(10, 5, 0))
    with pytest.raises(ValueError, match="interval"):
        rainbow_via_energy(mod_coloring(8, 4, Domain.CYCLIC))


def test_low_k_short_circuit():
    assert count_rainbow_fast(random_coloring(25, 3, 1)) == 0
    assert count_rainbow_fast(random_coloring(25, 1, 1)) == 0


def test_label_permutation_invariance():
    base = random_coloring(40, 5, 3)
    for perm in itertools.permutations(range(1, 6)):
        swapped = Coloring(Domain.INTERVAL, 40, 5, tuple(perm[c - 1] for c in base.colors))
        assert count_rainbow_fast(swapped) == count_rainbow_fast(base)


def test_cyclic_mod4_spot():
    c = mod_coloring(8, 4, Domain.CYCLIC)
    assert count_rainbow_cyclic_naive(c) == 16
    assert count_rainbow_cyclic_fast(c) == 16


@given(n_and_k(4, 36), st.integers(0, 10**6))
@example((36, 36), 0)
@example((35, 35), 1)
@example((30, 17), 2)
@example((29, 20), 3)
@settings(max_examples=60, deadline=None)
def test_cyclic_fast_matches_naive(nk, seed):
    n, k = nk
    c = random_coloring(n, k, seed, Domain.CYCLIC)
    naive = count_rainbow_cyclic_naive(c)
    if k >= 4:
        assert count_rainbow_cyclic_fast(c) == naive
    else:
        assert naive == 0
        assert count_rainbow_cyclic_fast(c) == 0


@pytest.mark.parametrize("block", [1, 7, 100])
def test_blocked_histograms_match_naive(monkeypatch, block):
    # classes this small fit one block; shrink it to one circulant row a
    # block (1), or a few rows, so blocks split the rows of every class
    monkeypatch.setattr(counting, "_PAIRS", block)
    for n, k, seed in ((60, 4, 1), (57, 5, 2), (40, 9, 3)):
        c = random_coloring(n, k, seed)
        assert count_rainbow_fast(c) == count_rainbow_naive(c).rainbow
        cyc = random_coloring(n, k, seed, Domain.CYCLIC)
        assert count_rainbow_cyclic_fast(cyc) == count_rainbow_cyclic_naive(cyc)


def assert_outer_histograms(x, n):
    # the reference: both histograms over all |x|^2 ordered pairs at once
    y = x.astype(np.int64)
    sums = np.bincount(np.add.outer(y, y).ravel(), minlength=2 * n + 1)
    diffs = np.bincount((np.subtract.outer(y, y) + n).ravel(), minlength=2 * n + 1)
    for got, want in zip(counting._pair_histograms(x, n), (sums, diffs)):
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_pair_histograms_in_row_blocks_match_outer_reference():
    # 404,550 pairs in blocks of 72 rows of 900: seven blocks, the last one
    # ending on the half row m / 2 of this even class
    n = 2000
    x = np.sort(np.random.default_rng(0).choice(np.arange(1, n + 1), 900, replace=False))
    assert len(x) % 2 == 0 and len(x) * (len(x) - 1) // 2 > 6 * counting._PAIRS
    assert_outer_histograms(x, n)


@pytest.mark.parametrize("block", [1, 7])
def test_pair_histograms_of_small_classes_match_outer_reference(monkeypatch, block):
    # every class size up to 9: odd m, and even m with its half row, in
    # blocks of one row (1) or of the whole rows that fit 7 entries
    monkeypatch.setattr(counting, "_PAIRS", block)
    rng = np.random.default_rng(block)
    for m in range(1, 10):
        for n in (m, m + 1, 4 * m + 3):
            assert_outer_histograms(np.sort(rng.choice(np.arange(1, n + 1), m, replace=False)).astype(np.int32), n)


def test_pair_histograms_form_half_the_square():
    # all |x|^2 = 10^6 ordered pairs in one block would take 8 MiB; blocks of
    # _PAIRS entries peak at 846 KiB, and this bound leaves 178 KiB of margin
    n = 8000
    x = np.sort(np.random.default_rng(1).choice(np.arange(1, n + 1), 1000, replace=False))
    tracemalloc.start()
    try:
        counting._pair_histograms(x, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def transform_histograms(x, n, length):
    """Both histograms of the class x from the transform engine, at a given length."""
    roots, acc = counting._roots(length), np.zeros(length, dtype=np.uint32)
    y = counting._forward_square(x, roots, acc)
    counting._backward(roots, y)
    q = counting._read_sums(y, n, len(x))
    return q, counting._transform_differences(n, roots, acc, len(x) ** 2)


def packed_sums(x, z, n, length):
    """The digits, Q of the class x and Q of the class z in transform order,
    that one backward transform of their packed spectra splits into, at a
    given length."""
    roots, acc = counting._roots(length), np.zeros(length, dtype=np.uint32)
    y, w = counting._forward_square(x, roots, acc), counting._forward_square(z, roots, acc)
    counting._backward(roots, y, w, c=len(x) + 1)
    return y, w


def transform_length(n):
    # the length the fast counters use: a power of two at least 2n - 1
    length = 2 << (n - 1).bit_length()
    assert length >= 2 * n - 1 and (length // 2 < 2 * n - 1 or n == 1)
    return length


@given(st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)))))
# dense intervals [1..m], whose slots reach m at the centre of each histogram
@example((1, set(range(1, 2))))
@example((2, set(range(1, 3))))
@example((3, set(range(1, 4))))
@example((24, set(range(1, 25))))
@example((25, set(range(1, 26))))
@example((249, set(range(1, 250))))
@example((250, set(range(1, 251))))
@example((2499, set(range(1, 2500))))
@example((2500, set(range(1, 2501))))
# 2n - 1 just under and just over a power of two: the window fills the
# transform, or leaves it nearly half empty
@example((32, set(range(1, 33))))
@example((33, set(range(1, 34))))
@example((64, {1, 64}))
@example((65, {1, 65}))
@example((128, set(range(1, 129))))
@example((129, {1, 2, 128, 129}))
# n/2, its own mirror image
@example((300, {150}))
@example((10, {1, 5, 9}))
@settings(max_examples=100, deadline=None)
def test_transform_histograms_match_pair_histograms(nx):
    n, members = nx
    x = np.array(sorted(members), dtype=np.int64)
    transform = transform_histograms(x, n, transform_length(n))
    for got, want in zip(transform, counting._pair_histograms(x, n)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_transform_engine_matches_naive(monkeypatch):
    # no class of these sizes crosses over; send every class through the
    # transform, at every length from 8 to 512
    monkeypatch.setattr(counting, "_CROSSOVER", 0)
    monkeypatch.setattr(counting, "_pair_histograms", lambda x, n: pytest.fail("pair histograms used"))
    cases = ((4, 4, 5), (5, 4, 6), (12, 4, 11), (17, 4, 7), (60, 4, 1), (57, 5, 2), (40, 9, 3), (36, 36, 4), (100, 5, 8), (129, 6, 9))
    assert {transform_length(n) for n, _, _ in cases} == {2**i for i in range(3, 10)}
    for n, k, seed in cases:
        c = random_coloring(n, k, seed)
        assert count_rainbow_fast(c) == count_rainbow_naive(c).rainbow
        cyc = random_coloring(n, k, seed, Domain.CYCLIC)
        assert count_rainbow_cyclic_fast(cyc) == count_rainbow_cyclic_naive(cyc)


@pytest.mark.parametrize("n", [3, 32, 33, 100])
def test_transform_wraparound_trips_the_sum_checks(n):
    # one power of two too short, the cyclic products wrap round; the window
    # of 2n - 1 slots then reads some slots twice
    x = np.arange(1, n + 1, dtype=np.int32)
    length = transform_length(n) // 2
    roots, acc = counting._roots(length), np.zeros(length, dtype=np.uint32)
    y = counting._forward_square(x, roots, acc)
    counting._backward(roots, y)
    with pytest.raises(OverflowError, match=f"length {length} wrapped the sums of a class of {n}"):
        counting._read_sums(y, n, n)
    with pytest.raises(OverflowError, match=f"length {length} wrapped the differences of classes of {n * n} pairs"):
        counting._transform_differences(n, roots, acc, n * n)
    q, d = transform_histograms(x, n, 2 * length)
    assert q.max() == d.max() == n


@pytest.mark.parametrize("n", [32, 64, 100])
def test_packed_wraparound_trips_both_digit_checks(n):
    # the odd and the even members of [n], packed into one backward transform
    # one power of two too short, where both classes' sums wrap round: each
    # digit's own sum check raises
    x, z = np.arange(1, n + 1, 2, dtype=np.int32), np.arange(2, n + 1, 2, dtype=np.int32)
    length = transform_length(n) // 2
    for digit, cls in zip(packed_sums(x, z, n, length), (x, z)):
        with pytest.raises(OverflowError, match=f"length {length} wrapped the sums of a class of {len(cls)}"):
            counting._read_sums(digit, n, len(cls))
    for digit, cls in zip(packed_sums(x, z, n, 2 * length), (x, z)):
        assert np.array_equal(counting._read_sums(digit, n, len(cls)), counting._pair_histograms(cls, n)[0])


@given(st.integers(2, 300).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 2), min_size=n, max_size=n))))
@example((300, [0] * 150 + [1] * 150))
@example((129, [0, 1] * 64 + [1]))
@settings(max_examples=50, deadline=None)
def test_packed_sums_match_pair_histograms(nz):
    # a random split of [n] into two classes and the rest: both digits of
    # one packed backward transform are the classes' own sum histograms
    n, side = nz
    x, z = (np.flatnonzero(np.array(side) == i).astype(np.int32) + 1 for i in (0, 1))
    for digit, cls in zip(packed_sums(x, z, n, transform_length(n)), (x, z)):
        assert np.array_equal(counting._read_sums(digit, n, len(cls)), counting._pair_histograms(cls, n)[0])


@pytest.mark.parametrize("n", [32, 64, 100])
def test_cross_sums_match_and_wrap_like_a_class(n):
    # the odd and the even members of [n]: the product of their spectra comes
    # back as their cross sums, and one power of two too short it wraps round
    x, z = np.arange(1, n + 1, 2, dtype=np.int32), np.arange(2, n + 1, 2, dtype=np.int32)
    want = np.bincount(np.add.outer(x, z).ravel(), minlength=2 * n + 1)
    for length in (transform_length(n), transform_length(n) // 2):
        roots, scratch = counting._roots(length), counting._scratch(length)
        y = counting._spectrum(x, roots, scratch)
        counting._mulmod(y, counting._spectrum(z, roots, scratch), y, *scratch[:2])
        counting._backward(roots, y)
        if length < 2 * n - 1:
            with pytest.raises(OverflowError, match=f"length {length} wrapped the sums of classes of {len(x)} and {len(z)}"):
                counting._read_sums(y, n, len(x), len(z))
        else:
            assert np.array_equal(counting._read_sums(y, n, len(x), len(z)), want)


@pytest.mark.parametrize("k", [4, 5, 8])
@pytest.mark.parametrize("domain", [Domain.INTERVAL, Domain.CYCLIC])
def test_transforms_per_call(monkeypatch, k, domain):
    # every class on the transform engine: one forward transform a class, one
    # backward a pair of classes (or the odd one out) and one for the differences
    monkeypatch.setattr(counting, "_CROSSOVER", 0)
    calls = {True: 0, False: 0}
    transform = counting._transform

    def counted(x, roots, scratch, forward):
        calls[forward] += 1
        transform(x, roots, scratch, forward)

    monkeypatch.setattr(counting, "_transform", counted)
    c = random_coloring(200, k, 1, domain)
    assert len(counting._classes(c)) == k
    count = count_rainbow_cyclic_fast if domain is Domain.CYCLIC else count_rainbow_fast
    want = count_rainbow_cyclic_naive(c) if domain is Domain.CYCLIC else count_rainbow_naive(c).rainbow
    assert count(c) == want
    assert calls == {True: k, False: -(-k // 2) + 1}


def test_unpacked_classes_count_the_same(monkeypatch):
    # with no two classes fitting one backward transform, each goes alone
    monkeypatch.setattr(counting, "_CROSSOVER", 0)
    cases = [(random_coloring(n, k, 3, domain), domain) for n, k in ((150, 4), (97, 5)) for domain in Domain]
    packed = [(count_rainbow_cyclic_fast if d is Domain.CYCLIC else count_rainbow_fast)(c) for c, d in cases]
    backward = counting._backward

    def alone_only(roots, y, *packed, c):
        assert not packed
        backward(roots, y, c=c)

    monkeypatch.setattr(counting, "_packs", lambda i, j: False)
    monkeypatch.setattr(counting, "_backward", alone_only)
    alone = [(count_rainbow_cyclic_fast if d is Domain.CYCLIC else count_rainbow_fast)(c) for c, d in cases]
    assert alone == packed
    assert alone[0] == count_rainbow_naive(cases[0][0]).rainbow


def test_packing_needs_both_digits_under_the_prime():
    # Q_i < |X_i| + 1 and Q_j <= |X_j|: the largest residue is (i + 1) j + i
    i = 31_600
    j = (counting._P - 1 - i) // (i + 1)
    assert counting._packs(i, j) and not counting._packs(i, j + 1)
    assert (i + 1) * j + i < counting._P <= (i + 1) * (j + 1) + i
    # any two disjoint classes of [n] pack up to n = 63188, where a(n - a) + n,
    # largest at a = n / 2, stays under the prime
    n = 63_188
    assert all(counting._packs(a, n - a) for a in (1, n // 2 - 1, n // 2, n // 2 + 1, n - 1))
    assert not counting._packs((n + 1) // 2, (n + 2) // 2)


def test_counters_reject_wrong_domain():
    cyc = mod_coloring(10, 4, Domain.CYCLIC)
    flat = mod_coloring(10, 4)
    with pytest.raises(ValueError):
        count_rainbow_naive(cyc)
    with pytest.raises(ValueError):
        count_rainbow_fast(cyc)
    with pytest.raises(ValueError):
        count_rainbow_cyclic_naive(flat)
    with pytest.raises(ValueError):
        count_rainbow_cyclic_fast(flat)
    with pytest.raises(ValueError, match="^non_rainbow_lower_bound expects an interval coloring$"):
        non_rainbow_lower_bound(cyc)


def test_fast_counters_check_int64_headroom():
    limit = counting._MAX_N
    assert limit**3 <= 2**63 - 1 < (limit + 1) ** 3
    for domain, count in ((Domain.INTERVAL, count_rainbow_fast), (Domain.CYCLIC, count_rainbow_cyclic_fast)):
        # a stand-in coloring without colors: the check must fire before any class is built
        huge = SimpleNamespace(domain=domain, n=limit + 1, k=4)
        with pytest.raises(ValueError, match=f"n={limit + 1} .*n <= {limit}"):
            count(huge)


def test_counters_cost_only_the_colors_that_occur():
    # k = 10**4 colors, five of them used: absent colors must cost nothing
    colors = (1, 9999, 1, 5000, 10**4, 9999, 2, 5000)
    c = Coloring(Domain.INTERVAL, 8, 10**4, colors)
    cc = Coloring(Domain.CYCLIC, 8, 10**4, colors)
    relabelled = Coloring(Domain.INTERVAL, 8, 5, (1, 2, 1, 3, 4, 2, 5, 3))
    for count, coloring, want in (
        (count_rainbow_fast, c, count_rainbow_naive(c).rainbow),
        (count_rainbow_cyclic_fast, cc, count_rainbow_cyclic_naive(cc)),
        (non_rainbow_lower_bound, c, non_rainbow_lower_bound(relabelled)),
    ):
        tracemalloc.start()
        try:
            got = count(coloring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want > 0 and peak < 64 * 1024


def test_fast_counters_check_the_class_ceiling(monkeypatch):
    # classes that occur, times n: refused before either engine starts
    monkeypatch.setattr(counting, "_pair_histograms", lambda x, n: pytest.fail("pair histograms used"))
    monkeypatch.setattr(counting, "_roots", lambda length: pytest.fail("transform used"))
    n = 20000
    classes = counting.CLASS_N_CEILING // n + 1
    for domain, count in ((Domain.INTERVAL, count_rainbow_fast), (Domain.CYCLIC, count_rainbow_cyclic_fast)):
        # 10**6 colors of which `classes` occur
        c = SimpleNamespace(domain=domain, n=n, k=10**6, colors=np.arange(n) % classes * 997 + 1)
        with pytest.raises(ValueError, match=f"{classes} color classes times n={n} is {classes * n}, over the ceiling"):
            count(c)


@pytest.mark.parametrize(
    "count, domain, n, k, per_n",
    [
        # measured 74, 87 and 78 bytes per n, all on the transform engine
        # with one chunk scratch set a transform class; scratch made afresh
        # by each transform took 74, 103 and 87, and classes as lists of boxed
        # ints, a residual buffer beside each engine's histograms and decimal
        # squarings 181 and 339 for the first two
        (count_rainbow_fast, Domain.INTERVAL, 10**5, 4, 100),
        (count_rainbow_cyclic_fast, Domain.CYCLIC, 8000, 8, 300),
        (count_rainbow_fast, Domain.INTERVAL, 20000, 4, 84),
        # measured 78 and 167 bytes per n with two transform classes to a
        # backward transform and S and the classes as int32; 77 and 178 with
        # one class to a backward transform and int64 S, W_i and classes
        (count_rainbow_fast, Domain.INTERVAL, 20000, 8, 80),
        (count_rainbow_fast, Domain.INTERVAL, 10000, 16, 170),
        # measured 96 bytes per n: four uint32 spectra of length 2.6 n, and
        # two int64 sum profiles alive at the dot product
        (rainbow_via_energy, Domain.INTERVAL, 10**5, 4, 100),
    ],
)
def test_fast_counters_peak_per_n(count, domain, n, k, per_n):
    c = random_coloring(n, k, 1, domain)
    tracemalloc.start()
    try:
        count(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < per_n * n, peak / n


def test_cyclic_scan_size_counts_scanned_pairs():
    # the scan visits each balanced pairing of Z_n once, so its tallies total |S(n)|
    for n in range(1, 40):
        tallies = counting._naive_tallies(mod_coloring(n, 1, Domain.CYCLIC), cyclic=True)
        assert modular_count_formula(n) == sum(tallies)


def test_cyclic_scan_size_matches_residue_tally():
    # residue r has (n - #{a : 2a = r mod n}) / 2 pairs with sum r mod n
    for n in range(1, 2001):
        doubles = [0] * n
        for a in range(n):
            doubles[2 * a % n] += 1
        assert modular_count_formula(n) == sum(comb((n - d) // 2, 2) for d in doubles)


class Unread:
    """A stand-in coloring whose colors fail the test when read."""

    def __init__(self, domain, n):
        self.domain, self.n, self.k = domain, n, 4

    @property
    def colors(self):
        pytest.fail("colors read")


def test_naive_scans_check_the_ceiling(monkeypatch):
    enumeration._check_scan(SCAN_CEILING, "a scan at the ceiling")
    with pytest.raises(ValueError):
        enumeration._check_scan(SCAN_CEILING + 1, "a scan over the ceiling")
    # the benchmark's naive scans at n = 240 stay under the ceiling
    assert total_quads_formula(240) <= SCAN_CEILING
    assert modular_count_formula(240) <= SCAN_CEILING
    flat = next(n for n in range(4, 10**4) if total_quads_formula(n) > SCAN_CEILING)
    with pytest.raises(ValueError, match=f"{total_quads_formula(flat)} quads.*{SCAN_CEILING}"):
        count_rainbow_naive(Unread(Domain.INTERVAL, flat))
    cyc = next(n for n in range(4, 10**4) if modular_count_formula(n) > SCAN_CEILING)
    monkeypatch.setattr(counting, "np", None)  # the check comes before any array
    with pytest.raises(ValueError, match=f"{modular_count_formula(cyc)} quads.*{SCAN_CEILING}"):
        count_rainbow_cyclic_naive(Unread(Domain.CYCLIC, cyc))


@given(st.integers(8, 50), st.integers(2, 6), st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_non_rainbow_floor(n, k, seed):
    c = random_coloring(n, k, seed)
    bd = count_rainbow_naive(c)
    assert bd.total - bd.rainbow >= non_rainbow_lower_bound(c)


@given(st.integers(4, 40), st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_non_rainbow_floor_is_the_per_pair_sum(n, k, seed):
    c = random_coloring(n, k, seed)
    pairs = [(b, a) for b in range(1, n) for a in range(b + 1, n + 1) if c.colors[b - 1] == c.colors[a - 1]]
    assert non_rainbow_lower_bound(c) == Fraction(sum(f_n_exact(n, b, a) for b, a in pairs), 6)


def test_non_rainbow_floor_checks_the_ceiling(monkeypatch):
    class Started(Exception):
        pass

    def start(*_):
        raise Started

    monkeypatch.setattr(counting, "f_n_exact", start)
    # one class of m members has C(m, 2) same-colored pairs
    m = next(m for m in itertools.count(2) if comb(m, 2) > SCAN_CEILING)
    with pytest.raises(ValueError, match=f"over {comb(m, 2)} same-colored pairs, over the ceiling of {SCAN_CEILING}"):
        non_rainbow_lower_bound(mod_coloring(m, 1))
    with pytest.raises(Started):
        non_rainbow_lower_bound(mod_coloring(m - 1, 1))
