"""Exact enumeration and counting of the 4-set families."""
import inspect
import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sidonrainbow import enumeration
from sidonrainbow.core import ModularSidonQuad, SidonQuad, make_quad
from sidonrainbow.enumeration import (
    count_quads_by_sums,
    enumerate_modular_quads,
    enumerate_quads,
    f_n_exact,
    f_n_scan,
    modular_count_formula,
    pairs_with_sum,
    total_quads_formula,
)


def quads(n):
    # each enumerated row, checked as a SidonQuad
    return [SidonQuad(*row) for q in enumerate_quads(n) for row in q.tolist()]


def brute_pairs(n, l):
    return sum(1 for a in range(1, n + 1) for b in range(a + 1, n + 1) if a + b == l)


@given(st.integers(1, 30), st.integers(0, 70))
def test_pairs_with_sum(n, l):
    assert pairs_with_sum(n, l) == brute_pairs(n, l)


def test_enumerate_small():
    assert quads(4) == [SidonQuad(4, 3, 2, 1)]
    assert len(quads(5)) == 3
    assert quads(3) == []
    with pytest.raises(ValueError):
        list(enumerate_quads(0))


def per_sum_blocks(n):
    """Reference: the quads of each nonempty pair sum l as an int32 array of its
    own, in the enumeration's order, built from the index pairs c < r < p."""
    for l in range(5, 2 * n):
        lo, hi = max(1, l - n), (l - 1) // 2
        rows = [(l - hi + r, l - hi + c, hi - c, hi - r) for r in range(hi - lo + 1) for c in range(r)]
        if rows:
            yield np.array(rows, dtype=np.int32)


def test_enumerate_yields_int32_blocks_of_whole_pair_sums():
    assert inspect.isgeneratorfunction(enumerate_quads)  # the benchmark tracer times it per next()
    for n in (1, 3, 4, 9, 20, 60, 100, 101):
        blocks = list(enumerate_quads(n))
        assert all(q.dtype == np.int32 and q.ndim == 2 and q.shape[1] == 4 and len(q) for q in blocks)
        sums = [(q[:, 0] + q[:, 3]).tolist() for q in blocks]
        # ascending inside each block, a block at most _BLOCK_ROWS rows or one sum alone
        assert all(s == sorted(s) and (len(s) <= enumeration._BLOCK_ROWS or s[0] == s[-1]) for s in sums)
        # no sum is split between two blocks, and a block ends only where the
        # next sum would take it past _BLOCK_ROWS rows
        assert all(a[-1] < b[0] and len(a) + b.count(b[0]) > enumeration._BLOCK_ROWS for a, b in zip(sums, sums[1:]))
        reference = list(per_sum_blocks(n))
        joined = np.concatenate(blocks) if blocks else np.empty((0, 4), dtype=np.int32)
        assert np.array_equal(joined, np.concatenate(reference) if reference else joined)
        # at n = 100 and 101 the middle sums have more rows than a block holds
        assert any(len(q) > enumeration._BLOCK_ROWS for q in blocks) == (n >= 100)


def test_enumerate_matches_subset_scan():
    # definition-level oracle: every 4-subset checked directly
    for n in range(4, 13):
        expected = {
            q
            for sub in itertools.combinations(range(1, n + 1), 4)
            if (q := make_quad(*sub, n)) is not None
        }
        got = quads(n)
        assert len(got) == len(set(got))
        assert set(got) == expected


def test_enumerate_order_contract():
    for n in (7, 12, 19):
        keys = [(q.x1 + q.x4, q) for q in quads(n)]
        assert keys == sorted(keys)


def test_enumerate_holds_one_table_and_one_block():
    # At n = 300 the shared (row, col) int32 table holds C(150, 2) pairs, 87 KiB,
    # and the largest pair sum's block of rows twice that. Building the table
    # takes less than another table; a consumer that drops each block holds
    # the table and one block.
    table = 2 * 4 * comb(150, 2)
    list(enumerate_quads(300))  # first calls may fill lazy caches
    tracemalloc.start()
    try:
        blocks = enumerate_quads(300)
        next(blocks)
        setup = tracemalloc.get_traced_memory()[1]
        for q in blocks:
            del q
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert setup < 2 * table
    assert peak < 3 * table + 16 * 1024


@pytest.mark.parametrize("n, expected", [(4, 1), (5, 3), (10, 50), (12, 95), (20, 525)])
def test_total_formula_spots(n, expected):
    assert total_quads_formula(n) == expected


def test_three_counting_routes_agree():
    for n in range(1, 30):
        formula = total_quads_formula(n)
        assert count_quads_by_sums(n) == formula
        assert len(quads(n)) == formula


def test_sums_route_large():
    for n in (100, 999, 2048):
        assert count_quads_by_sums(n) == total_quads_formula(n)


def test_sums_route_takes_constant_memory():
    tracemalloc.start()
    try:
        total = count_quads_by_sums(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == total_quads_formula(10**6)
    assert peak < 4 * 2**20  # one block of pair sums; 61 MiB as one array


def test_sums_route_checks_the_sum_ceiling(monkeypatch):
    # exact past the int64 range: the blocks add up in a Python int
    assert total_quads_formula(4801281) <= 2**63 - 1 < total_quads_formula(4801282)
    # the largest single n, 2n - 3 pair sums at the ceiling
    limit = (enumeration.SUMS_CEILING + 3) // 2
    assert count_quads_by_sums(limit) == total_quads_formula(limit) == 10416663541666250000
    monkeypatch.setattr(enumeration, "np", None)  # the check comes before any array
    with pytest.raises(ValueError, match=f"^n={limit + 1} would add up {2 * limit - 1} pair sums"):
        count_quads_by_sums(limit + 1)


def test_modular_enumeration_k4():
    assert enumerate_modular_quads(4) == [
        ModularSidonQuad((1, 2), (3, 4), 4),
        ModularSidonQuad((1, 4), (2, 3), 4),
    ]
    assert enumerate_modular_quads(3) == []


@pytest.mark.parametrize("k, expected", [(4, 2), (5, 5), (6, 12), (10, 80)])
def test_modular_formula_spots(k, expected):
    assert modular_count_formula(k) == expected
    assert len(enumerate_modular_quads(k)) == expected


def test_modular_formula_small_k():
    assert [modular_count_formula(k) for k in (1, 2, 3)] == [0, 0, 0]


def brute_modular(k):
    # every 4-subset of residues and each of its three pairings
    out = []
    for w, x, y, z in itertools.combinations(range(1, k + 1), 4):
        for pa, pb in (((w, x), (y, z)), ((w, y), (x, z)), ((w, z), (x, y))):
            if (sum(pa) - sum(pb)) % k == 0:
                out.append(ModularSidonQuad(pa, pb, k))
    return sorted(out)


def test_modular_enumeration_matches_formula():
    for k in range(4, 31):
        quads = enumerate_modular_quads(k)
        assert len(quads) == modular_count_formula(k)
        assert quads == sorted(quads)
        assert len(set(quads)) == len(quads)
        if k <= 20:
            assert quads == brute_modular(k)


@pytest.mark.parametrize("n, b, a, expected", [(10, 1, 2, 7), (10, 1, 10, 4)])
def test_pair_membership_spots(n, b, a, expected):
    assert f_n_exact(n, b, a) == expected
    assert f_n_scan(n, b, a) == expected


def test_pair_membership_all_pairs():
    for n in (6, 9, 13):
        for b in range(1, n):
            for a in range(b + 1, n + 1):
                assert f_n_exact(n, b, a) == f_n_scan(n, b, a)


def test_pair_membership_sums_to_six_times_total():
    for n in (8, 15, 30):
        s = sum(f_n_exact(n, b, a) for b in range(1, n) for a in range(b + 1, n + 1))
        assert s == 6 * total_quads_formula(n)


def test_pair_membership_takes_arrays():
    for n in (6, 13, 40):
        b, a = np.array([(b, a) for b in range(1, n) for a in range(b + 1, n + 1)]).T
        got = f_n_exact(n, b, a)
        assert got.dtype == np.int64
        assert got.tolist() == [f_n_exact(n, x, y) for x, y in zip(b.tolist(), a.tolist())]
    assert type(f_n_exact(10, 1, 2)) is int and type(pairs_with_sum(10, 7)) is int
    assert pairs_with_sum(10, np.arange(25)).tolist() == [brute_pairs(10, l) for l in range(25)]
    with pytest.raises(ValueError):
        f_n_exact(10, np.array([1, 3]), np.array([2, 3]))


def test_pair_membership_rejects_bad_args():
    with pytest.raises(ValueError):
        f_n_exact(10, 3, 3)
    with pytest.raises(ValueError):
        f_n_exact(10, 0, 4)
    with pytest.raises(ValueError):
        f_n_exact(10, 2, 11)
