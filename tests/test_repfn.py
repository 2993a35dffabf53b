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


def profile_dict(A, B):
    """rep_profile(A, B) as {m: r_{A+B}(m)} over its support, Python ints."""
    lo, counts = rep_profile(A, B)
    return dict(enumerate(counts.tolist(), start=lo))


def _fold_energy_slow(sets) -> int:
    """Pure-Python reference fold; must be bit-identical to additive_energy."""
    if any(len(s) == 0 for s in sets):
        return 0
    acc = {0: 1}
    for s in sets:
        nxt: dict[int, int] = {}
        for m, cnt in acc.items():
            for a in s:
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
    # a hashable tuple, equal to its sorted elements
    assert isinstance(s, tuple) and s == (-1, 2, 3) and hash(s) == hash((-1, 2, 3))
    assert (s[0], s[-1]) == (-1, 3) and {s: 1}[(-1, 2, 3)] == 1
    assert repr(s) == "IntSet([-1, 2, 3])" and repr(IntSet([])) == "IntSet([])"
    with pytest.raises(ValueError, match="^duplicate element 1$"):
        IntSet([1, 1, 2])
    with pytest.raises(AttributeError):
        s.values = (1,)  # no instance dict


def test_intset_beyond_int64():
    big = IntSet([2**70, -(2**70), 2**70 + 3])
    assert big == (-(2**70), 2**70, 2**70 + 3)
    lo, counts = rep_profile(IntSet([2**70, 2**70 + 1]), IntSet([-(2**70)]))
    assert (type(lo), lo, counts.dtype, counts.tolist()) == (int, 0, np.int64, [1, 1])
    assert additive_energy([IntSet([2**70, 2**70 + 1]), IntSet([-(2**70) - 1, -(2**70)])]) == 2


def test_rep_profile_hand():
    lo, counts = rep_profile(IntSet([1, 2]), IntSet([1, 3]))
    # sums: 2, 4, 3, 5
    assert lo == 2 and counts.tolist() == [1, 1, 1, 1]
    lo, counts = rep_profile(IntSet([0, 4]), IntSet([-1, 0]))
    # sums: -1, 0, 3, 4; the gap between them is zeros
    assert lo == -1 and counts.tolist() == [1, 1, 0, 0, 1, 1]
    with pytest.raises(ValueError):
        rep_profile(IntSet([]), IntSet([1]))


sparse_sets = st.sets(st.integers(-3000, 3000), min_size=1, max_size=6).map(IntSet)
negative_sets = st.sets(st.integers(-80, -1), min_size=1, max_size=30).map(IntSet)


def assert_pairwise_profile(A, B):
    lo, counts = rep_profile(A, B)
    sums = Counter(a + b for a, b in itertools.product(A, B))
    assert (type(lo), lo, lo + len(counts) - 1) == (int, min(sums), max(sums))
    assert counts.dtype == np.int64 and counts.tolist() == [sums[m] for m in range(lo, lo + len(counts))]


@given(st.one_of(int_sets, sparse_sets, negative_sets), st.one_of(int_sets, sparse_sets, negative_sets))
def test_rep_profile_matches_pairwise_counter(A, B):
    assert_pairwise_profile(A, B)


def test_rep_profile_at_digit_width_boundaries():
    # the top count min(|A|, |B|) just fits a 1-byte digit, just needs 2, or needs 4
    for alpha, beta, top in ((127, 128, 255), (128, 128, 257), (32768, 32768, 65537)):
        lo, counts = rep_profile(interval(alpha), interval(beta))
        assert (lo, counts.dtype, counts.max()) == (-alpha - beta, np.int64, top)
        assert np.array_equal(counts, closed_rep_two_intervals(alpha, beta, np.arange(lo, -lo + 1)))
    # 256 is the least count a 1-byte digit cannot hold
    A, B = IntSet(range(256)), IntSet(range(300))
    assert rep_profile(A, B)[1].max() == 256
    assert_pairwise_profile(A, B)


@given(int_sets, int_sets)
def test_rep_profile_mass_and_symmetry(A, B):
    p = profile_dict(A, B)
    assert sum(p.values()) == len(A) * len(B)
    assert p == profile_dict(B, A)
    assert all(c >= 0 for c in p.values())


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


@pytest.mark.parametrize(
    "sizes", [(3, 5, 17), (16, 16), (4, 4, 4, 4), (3, 5, 17, 257), (256, 256)],
    ids=["255", "256", "256-four", "65535", "65536"],
)
def test_energy_at_digit_width_boundaries(sizes):
    # prod(|A_i|) of 255, 256, 65,535 and 65,536: the last size of each width
    # of digit and the first of the next; sets of consecutive integers around 0
    sets = [IntSet(range(-(n // 2), n - n // 2)) for n in sizes]
    assert additive_energy(sets) == _fold_energy_slow(sets)


def test_energy_checks_the_fold_ceiling(monkeypatch):
    # spans 10, 10 (by its ends, not its size) and 3, in 1-byte digits: prod(|A_i|) = 40
    sets = [IntSet(range(10)), IntSet([0, 9]), IntSet([-1, 1])]
    monkeypatch.setattr(repfn, "PRODUCT_CEILING", 23)
    assert additive_energy(sets) == _fold_energy_slow(sets)
    monkeypatch.setattr(repfn, "PRODUCT_CEILING", 22)
    with pytest.raises(ValueError, match="^a product of these sets would take 23 bytes, over the ceiling of 22$"):
        additive_energy(sets)
    # 360 tuples need 2-byte digits: spans 10, 10, 3 and 3 take 52 bytes
    wider = [IntSet(range(10)), IntSet([0, 2, 5, 9]), IntSet([-1, 0, 1]), IntSet([0, 1, 2])]
    with pytest.raises(ValueError, match="^a product of these sets would take 52 bytes, over the ceiling of 22$"):
        additive_energy(wider)


def test_products_refuse_a_sparse_wide_span_pair(monkeypatch):
    # two and three elements, but spans of 10**6 + 1 and 2 * 10**6 + 1: the bytes of
    # the product count the spans, not the sizes, and are checked before any buffer
    A, B = IntSet([0, 10**6]), IntSet([-(10**6), 0, 10**6])
    monkeypatch.setattr(repfn, "PRODUCT_CEILING", 3 * 10**6 + 2)
    assert {m: r for m, r in profile_dict(A, B).items() if r} == {-(10**6): 1, 0: 2, 10**6: 2, 2 * 10**6: 1}
    assert additive_energy([A, B]) == _fold_energy_slow([A, B]) == 2
    monkeypatch.setattr(repfn, "PRODUCT_CEILING", 3 * 10**6 + 1)
    for product in (lambda: rep_profile(A, B), lambda: additive_energy([A, B])):
        with pytest.raises(ValueError, match="^a product of these sets would take 3000002 bytes, over the ceiling"):
            product()


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
    assert closed_rep_two_intervals(alpha, beta, m) == profile_dict(interval(alpha), interval(beta)).get(m, 0)
    assert closed_rep_one_interval(alpha, m) == profile_dict(interval(alpha), interval(alpha)).get(m, 0)


@given(st.integers(1, 15), st.integers(0, 15))
def test_closed_forms_on_arrays_match_scalar_calls(alpha, extra):
    beta = alpha + extra
    ms = np.arange(-(alpha + beta) - 3, alpha + beta + 4, dtype=np.int64)
    two = closed_rep_two_intervals(alpha, beta, ms)
    one = closed_rep_one_interval(alpha, ms)
    assert two.dtype == one.dtype == np.int64
    assert two.tolist() == [closed_rep_two_intervals(alpha, beta, m) for m in ms.tolist()]
    assert one.tolist() == [closed_rep_one_interval(alpha, m) for m in ms.tolist()]


RADIUS_DTYPES = st.sampled_from([np.int8, np.int16, np.int64])


@given(RADIUS_DTYPES, st.lists(st.tuples(st.integers(1, 100), st.integers(0, 27)), min_size=1, max_size=6),
       st.lists(st.integers(-260, 260), max_size=12))
def test_closed_forms_broadcast_over_radius_grids(dtype, radii, ms):
    # alpha + beta reaches 227 and 16 alpha^3 1.6 * 10^7: an int8 or int16 grid
    # computed in its own dtype would wrap
    alpha = np.array([a for a, _ in radii], dtype=dtype)
    beta = np.array([a + e for a, e in radii], dtype=dtype)
    m = np.array(ms, dtype=np.int64)
    two = closed_rep_two_intervals(alpha[:, None], beta[:, None], m)
    one = closed_rep_one_interval(alpha[:, None], m)
    e4 = closed_energy4_interval(alpha)
    assert two.dtype == one.dtype == e4.dtype == np.int64
    assert two.shape == one.shape == (len(radii), len(ms))
    pairs = list(zip(alpha.tolist(), beta.tolist()))
    assert two.tolist() == [[closed_rep_two_intervals(a, b, x) for x in ms] for a, b in pairs]
    assert one.tolist() == [[closed_rep_one_interval(a, x) for x in ms] for a, _ in pairs]
    assert e4.tolist() == [closed_energy4_interval(a) for a, _ in pairs]


def test_closed_forms_refuse_a_grid_with_one_bad_radius():
    good = np.array([1, 2, 3])
    with pytest.raises(ValueError, match="need 1 <= alpha <= beta"):
        closed_rep_two_intervals(good, np.array([1, 1, 3]), 0)
    for bad in (np.array([1, 0, 3]), np.array([2, -1, 1], dtype=np.int8)):
        with pytest.raises(ValueError, match="need alpha >= 1"):
            closed_rep_one_interval(bad, 0)
        with pytest.raises(ValueError, match="need alpha >= 1"):
            closed_energy4_interval(bad)


# radius tuples in 1..8 with 4 | s: the last radius makes up the sum
DIVISIBLE_TUPLES = st.lists(
    st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.integers(0, 1)).map(
        lambda t: (*t[:3], 4 - sum(t[:3]) % 4 + 4 * t[3])
    ),
    min_size=1,
    max_size=10,
)


@given(RADIUS_DTYPES, DIVISIBLE_TUPLES, st.integers(0, 6))
def test_dominance_checks_on_radius_arrays_are_all_of_the_scalar_calls(dtype, tuples, reach):
    # m may leave a pair's support, where sum dominance can fail for one tuple,
    # but stays within every s/2
    radii = np.array(tuples, dtype=dtype).T
    reach = min(reach, *(sum(t) // 2 for t in tuples))
    ms = np.arange(-reach, reach + 1)
    assert check_sum_dominance(*radii, ms) is all(check_sum_dominance(*t, ms) for t in tuples)
    assert check_energy_dominance(*radii) is all(check_energy_dominance(*t) for t in tuples) is True


def test_energy_dominance_on_arrays_fails_with_one_tuple(monkeypatch):
    # radii (1, 1, 1, 1) hold with equality, 19 = E_4(1): one below fails them alone
    monkeypatch.setattr(repfn, "closed_energy4_interval", lambda alpha: closed_energy4_interval(alpha) - (alpha == 1))
    grid = np.array([(2, 2, 2, 2), (1, 3, 2, 2), (3, 3, 1, 1)]).T
    assert check_energy_dominance(*grid)
    assert not check_energy_dominance(*np.concatenate([grid, np.ones((4, 1), dtype=np.int64)], axis=1))


@pytest.mark.parametrize(
    "bad, message",
    [((1, 1, 1, 2), "divisible by 4"), ((0, 2, 1, 1), "radii"), ((2, 1, -1, 2), "radii")],
)
def test_dominance_checks_refuse_an_array_with_one_bad_tuple(bad, message):
    radii = np.array([(1, 1, 1, 1), bad, (2, 2, 2, 2)]).T
    with pytest.raises(ValueError, match=message):
        check_energy_dominance(*radii)
    with pytest.raises(ValueError, match=message):
        check_sum_dominance(*radii, np.arange(-1, 2))


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
    # on radius arrays: |m| = 3 is past s/2 = 2 for (1, 1, 1, 1) alone
    with pytest.raises(ValueError, match="^\\|m\\| = 3 exceeds 2$"):
        check_sum_dominance(*np.array([(2, 2, 2, 2), (1, 1, 1, 1)]).T, np.arange(-3, 4))


@pytest.mark.parametrize("radii", [(0, 2, 1, 1), (-1, 3, 1, 1)])
def test_energy_dominance_checks_radii_first(monkeypatch, radii):
    monkeypatch.setattr(repfn, "closed_rep_two_intervals", lambda *args: pytest.fail("closed form read"))
    with pytest.raises(ValueError, match="interval radii must be >= 1"):
        check_energy_dominance(*radii)


def test_energy_dominance_left_side_is_the_profile_dot(monkeypatch):
    # the closed-form left side equals sum_m r_{A1+A2}(m) r_{A3+A4}(m) from the
    # profiles themselves: with the right side set to that dot product the check
    # holds, and one below it fails
    for a1, a2, a3, a4 in itertools.product(range(1, 9), repeat=4):
        s = a1 + a2 + a3 + a4
        if s % 4:
            continue
        p, q = profile_dict(interval(a1), interval(a2)), profile_dict(interval(a3), interval(a4))
        dot = sum(r * q.get(m, 0) for m, r in p.items())
        for right, holds in ((dot, True), (dot - 1, False)):
            monkeypatch.setattr(repfn, "closed_energy4_interval", lambda alpha: right)
            assert check_energy_dominance(a1, a2, a3, a4) is holds, (a1, a2, a3, a4)


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
