"""Representation profiles, energies, and the dominance/compression checks."""
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidonrainbow import repfn
from sidonrainbow.repfn import (
    IntSet,
    RepProfile,
    additive_energy,
    check_energy_dominance,
    check_lev,
    check_sum_dominance,
    closed_energy4_interval,
    closed_rep_one_interval,
    closed_rep_two_intervals,
    interval_compress,
    rep_profile,
)

int_sets = st.sets(st.integers(-10, 10), min_size=1, max_size=8).map(IntSet)


def interval(r):
    return IntSet(range(-r, r + 1))


def _fold_energy_slow(sets) -> int:
    """Pure-Python reference fold; must be bit-identical to additive_energy."""
    if any(len(s) == 0 for s in sets):
        return 0
    acc = {0: 1}
    for s in sets:
        nxt: dict[int, int] = {}
        for m, cnt in acc.items():
            for a in s.values:
                key = m + a
                nxt[key] = nxt.get(key, 0) + cnt
        acc = nxt
    return acc.get(0, 0)


def test_intset():
    s = IntSet([3, -1, 2])
    assert list(s) == [-1, 2, 3]
    assert len(s) == 3
    assert 2 in s and 0 not in s
    assert s == IntSet([2, 3, -1])
    with pytest.raises(ValueError, match="duplicate"):
        IntSet([1, 1, 2])


def test_profile_window():
    p = RepProfile(2, 4, (1, 0, 2))
    assert p[2] == 1 and p[3] == 0 and p[4] == 2
    assert p[1] == 0 and p[5] == 0
    assert sum(p.counts) == 3
    assert list(range(p.lo, p.hi + 1)) == [2, 3, 4]
    with pytest.raises(ValueError):
        RepProfile(2, 4, (1, 0))


def test_rep_profile_hand():
    p = rep_profile(IntSet([1, 2]), IntSet([1, 3]))
    # sums: 2, 4, 3, 5
    assert [p[m] for m in range(2, 6)] == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        rep_profile(IntSet([]), IntSet([1]))


sparse_sets = st.sets(st.integers(-3000, 3000), min_size=1, max_size=6).map(IntSet)
negative_sets = st.sets(st.integers(-80, -1), min_size=1, max_size=30).map(IntSet)
# 40 x 40 pairs at least: several row blocks of rep_profile
wide_sets = st.sets(st.integers(-150, 150), min_size=40, max_size=120).map(IntSet)


def assert_pairwise_profile(A, B):
    p = rep_profile(A, B)
    sums = Counter(a + b for a, b in itertools.product(A, B))
    assert (p.lo, p.hi) == (min(sums), max(sums))
    assert list(p.counts) == [sums[m] for m in range(p.lo, p.hi + 1)]
    assert all(type(c) is int for c in p.counts)


@given(st.one_of(int_sets, sparse_sets, negative_sets), st.one_of(int_sets, sparse_sets, negative_sets))
def test_rep_profile_matches_pairwise_counter(A, B):
    assert_pairwise_profile(A, B)


@given(wide_sets, wide_sets)
@settings(max_examples=30)
def test_rep_profile_across_row_blocks(A, B):
    assert len(A) * len(B) > 2 * repfn._BLOCK
    assert_pairwise_profile(A, B)


def test_profile_window_pads_with_zeros():
    p = RepProfile(2, 4, (1, 0, 2))
    assert p.window(0, 6).tolist() == [0, 0, 1, 0, 2, 0, 0]
    assert p.window(3, 3).tolist() == [0]
    assert p.window(-5, 1).tolist() == [0] * 7 and p.window(5, 8).tolist() == [0] * 4
    assert p.window(0, 6).dtype == np.int64


@given(int_sets, int_sets)
def test_rep_profile_mass_and_symmetry(A, B):
    p = rep_profile(A, B)
    assert sum(p.counts) == len(A) * len(B)
    q = rep_profile(B, A)
    assert (p.lo, p.hi, p.counts) == (q.lo, q.hi, q.counts)
    assert all(c >= 0 for c in p.counts)


def test_interval_compress():
    assert interval_compress(1) == IntSet([-1, 0, 1])
    assert interval_compress(2) == IntSet([-1, 0, 1])
    assert interval_compress(5) == IntSet(range(-3, 4))
    with pytest.raises(ValueError):
        interval_compress(0)


def test_energy_hand_values():
    # pairs summing to zero in {-1,0,1} x {-1,0,1}
    assert additive_energy([interval(1), interval(1)]) == 3
    assert additive_energy([IntSet([1, 2]), IntSet([5])]) == 0
    assert additive_energy([IntSet([1, 2]), IntSet([-2, 5])]) == 1
    with pytest.raises(ValueError):
        additive_energy([interval(1)])


@given(st.lists(int_sets, min_size=2, max_size=4))
@settings(max_examples=200)
def test_energy_matches_slow_fold(sets):
    assert additive_energy(sets) == _fold_energy_slow(sets)


def test_energy_int64_headroom():
    # the product of sizes bounds every count in the fold: 10**18 fits int64, 10**22 does not
    ten = IntSet(range(-5, 5))
    assert additive_energy([ten] * 18) == _fold_energy_slow([ten] * 18)
    with pytest.raises(ValueError, match="2\\*\\*63"):
        additive_energy([ten] * 22)


def test_energy_checks_the_fold_ceiling(monkeypatch):
    # spans 10, 10 (by its ends, not its size) and 3: 10 * 10, then the 19-long array times 3
    sets = [IntSet(range(10)), IntSet([0, 9]), IntSet([-1, 1])]
    monkeypatch.setattr(repfn, "ENERGY_CEILING", 157)
    assert additive_energy(sets) == _fold_energy_slow(sets)
    monkeypatch.setattr(repfn, "ENERGY_CEILING", 156)
    with pytest.raises(ValueError, match="^an energy fold would take 157 multiply-adds, over the ceiling of 156$"):
        additive_energy(sets)


def test_two_interval_closed_form_spots():
    assert closed_rep_two_intervals(2, 5, 0) == 5
    assert closed_rep_two_intervals(2, 5, 3) == 5
    assert closed_rep_two_intervals(2, 5, 4) == 4
    assert closed_rep_two_intervals(2, 5, -7) == 1
    assert closed_rep_two_intervals(2, 5, 8) == 0
    with pytest.raises(ValueError):
        closed_rep_two_intervals(5, 2, 0)


def test_one_interval_closed_form_spots():
    assert closed_rep_one_interval(3, 0) == 7
    assert closed_rep_one_interval(3, -6) == 1
    assert closed_rep_one_interval(3, 7) == 0


@given(st.integers(1, 12), st.integers(0, 12), st.integers(-30, 30))
def test_closed_forms_match_profiles(alpha, extra, m):
    beta = alpha + extra
    p = rep_profile(interval(alpha), interval(beta))
    assert closed_rep_two_intervals(alpha, beta, m) == p[m]
    q = rep_profile(interval(alpha), interval(alpha))
    assert closed_rep_one_interval(alpha, m) == q[m]


@given(st.integers(1, 15), st.integers(0, 15))
def test_closed_forms_on_arrays_match_scalar_calls(alpha, extra):
    beta = alpha + extra
    ms = np.arange(-(alpha + beta) - 3, alpha + beta + 4, dtype=np.int64)
    two = closed_rep_two_intervals(alpha, beta, ms)
    one = closed_rep_one_interval(alpha, ms)
    assert two.dtype == one.dtype == np.int64
    assert two.tolist() == [closed_rep_two_intervals(alpha, beta, m) for m in ms.tolist()]
    assert one.tolist() == [closed_rep_one_interval(alpha, m) for m in ms.tolist()]


def test_closed_forms_scalar_calls_return_int():
    assert type(closed_rep_two_intervals(2, 5, 3)) is int
    assert type(closed_rep_two_intervals(2, 5, 40)) is int
    assert type(closed_rep_one_interval(3, -2)) is int
    assert type(closed_rep_one_interval(3, 9)) is int


@pytest.mark.parametrize("alpha, value", [(1, 19), (2, 85)])
def test_energy4_spots(alpha, value):
    assert closed_energy4_interval(alpha) == value


@pytest.mark.parametrize("alpha", range(1, 9))
def test_energy4_matches_fold(alpha):
    J = interval(alpha)
    assert closed_energy4_interval(alpha) == additive_energy([J, J, J, J])


def test_energy4_is_the_sum_of_squared_one_interval_counts():
    # the right side of check_energy_dominance, sum_{|m| <= 2q} r_{J+J}(m)^2
    for q in range(1, 101):
        assert closed_energy4_interval(q) == sum(closed_rep_one_interval(q, m) ** 2 for m in range(-2 * q, 2 * q + 1))


def test_sum_dominance_examples():
    assert check_sum_dominance(1, 1, 1, 1, 0)
    assert check_sum_dominance(1, 1, 3, 3, 2)
    # outside one pair's support the pointwise bound genuinely fails
    assert not check_sum_dominance(1, 1, 1, 5, 4)
    with pytest.raises(ValueError, match="divisible by 4"):
        check_sum_dominance(1, 1, 1, 2, 0)
    with pytest.raises(ValueError, match="exceeds"):
        check_sum_dominance(1, 1, 1, 1, 3)
    with pytest.raises(ValueError, match="radii"):
        check_sum_dominance(0, 2, 1, 1, 0)


def test_sum_dominance_on_arrays():
    # one failing m among passing ones fails the whole array
    assert check_sum_dominance(1, 1, 1, 5, np.arange(-2, 3))
    assert not check_sum_dominance(1, 1, 1, 5, np.arange(-4, 5))
    assert check_sum_dominance(1, 1, 1, 5, np.arange(-4, 5)) is False
    assert check_sum_dominance(1, 1, 3, 3, np.array([], dtype=np.int64))
    for radii in [(1, 1, 1, 5), (2, 3, 1, 2), (1, 1, 3, 3)]:
        ms = np.arange(-sum(radii) // 2, sum(radii) // 2 + 1)
        assert check_sum_dominance(*radii, ms) == all(check_sum_dominance(*radii, m) for m in ms.tolist())
    with pytest.raises(ValueError, match="exceeds"):
        check_sum_dominance(1, 1, 1, 1, np.array([0, 1, -3]))


@pytest.mark.parametrize("radii", [(0, 2, 1, 1), (-1, 3, 1, 1)])
def test_energy_dominance_checks_radii_first(monkeypatch, radii):
    monkeypatch.setattr(repfn, "rep_profile", lambda A, B: pytest.fail("profile built"))
    with pytest.raises(ValueError, match="interval radii must be >= 1"):
        check_energy_dominance(*radii)


@given(st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)))
def test_energy_dominance_with_shared_profiles(radii):
    a1, a2, a3, a4 = radii
    if (a1 + a2 + a3 + a4) % 4:
        return
    pairs = {(a, b): rep_profile(interval(a), interval(b)) for a, b in ((a1, a2), (a3, a4))}
    assert check_energy_dominance(a1, a2, a3, a4, pairs) == check_energy_dominance(a1, a2, a3, a4)
    # a profile that is too large at one m is caught
    p = pairs[a1, a2]
    bigger = list(p.counts)
    bigger[-p.lo] += (a1 + a2 + a3 + a4) ** 3  # more than the whole right side
    pairs[a1, a2] = RepProfile(p.lo, p.hi, tuple(bigger))
    assert not check_energy_dominance(a1, a2, a3, a4, pairs)


@given(st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)))
def test_dominance_inside_supports(radii):
    a1, a2, a3, a4 = radii
    s = a1 + a2 + a3 + a4
    if s % 4:
        return
    reach = min(a1 + a2, a3 + a4, s // 2)
    assert all(check_sum_dominance(a1, a2, a3, a4, m) for m in range(-reach, reach + 1))
    assert check_energy_dominance(a1, a2, a3, a4)


def test_energy_dominance_rejects_bad_sum():
    with pytest.raises(ValueError):
        check_energy_dominance(1, 1, 1, 2)


def test_lev_spots():
    assert check_lev([IntSet([1, 5, 9]), IntSet([-9, -5, -1])])
    assert check_lev([IntSet([0]), IntSet([])])
    with pytest.raises(ValueError):
        check_lev([IntSet([1])])


@given(st.lists(int_sets, min_size=2, max_size=4))
@settings(max_examples=300)
def test_lev_fuzz(sets):
    assert check_lev(sets)
