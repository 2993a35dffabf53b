"""Exhaustive and local search over colorings."""
import gc
import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidonrainbow import counting, search
from sidonrainbow.core import Coloring, Domain, mod_coloring, random_coloring
from sidonrainbow.counting import count_rainbow_naive
from sidonrainbow.enumeration import SCAN_CEILING, enumerate_quads, total_quads_formula
from sidonrainbow.search import (
    BudgetExceededError,
    canonical_coloring_count,
    delta_recolor,
    exhaustive_ar,
    fox_spot_check,
    local_search,
    result_to_json,
)


def brute_canonical(n, k):
    # every k-coloring of [n] in lexicographic order, kept when canonical
    for cols in itertools.product(range(1, k + 1), repeat=n):
        relabel = {}
        for c in cols:
            if c not in relabel:
                relabel[c] = len(relabel) + 1
        if all(c == relabel[c] for c in cols):
            yield cols


def test_canonical_count_matches_direct_enumeration():
    for n in range(1, 8):
        for k in range(1, 6):
            assert canonical_coloring_count(n, k) == sum(1 for _ in brute_canonical(n, k))


def test_canonical_count_matches_inclusion_exclusion():
    # S(n, j) = sum_i (-1)^i C(j, i) (j - i)^n / j!, zero for j > n
    for n in range(1, 301):
        stirling = [
            sum((-1) ** i * math.comb(j, i) * (j - i) ** n for i in range(j + 1)) // math.factorial(j)
            for j in range(9)
        ]
        for k in range(1, 9):
            assert canonical_coloring_count(n, k) == sum(stirling[1 : k + 1])


@pytest.mark.parametrize(
    "n, k, expected", [(4, 4, 1), (5, 4, 2), (5, 5, 3), (6, 4, 4), (7, 4, 6), (11, 4, 26)]
)
def test_exhaustive_spots(n, k, expected):
    r = exhaustive_ar(n, k)
    assert r.best_count == expected
    assert r.exact
    assert r.method == "exhaustive"
    assert count_rainbow_naive(r.best_coloring).rainbow == expected


def test_exhaustive_budget(monkeypatch):
    monkeypatch.setattr(search, "MAX_STATES", 100)
    with pytest.raises(BudgetExceededError, match="^11051 canonical colorings exceed the budget of 100$"):
        exhaustive_ar(9, 4)


def test_budget_from_the_four_color_count_alone(monkeypatch):
    # the count with at most four colors is exact at k = 4 and a floor above;
    # no Stirling rows are built, so n = 12 (700075) walks at every k
    monkeypatch.setattr(search, "canonical_coloring_count", lambda n, k: pytest.fail("rows built"))
    for k in range(5, 14):
        r = exhaustive_ar(12, k)
        assert r.exact and r.best_count >= 37 and r.best_coloring.k == k
    # past n = 12 it refuses at once: 2798251 at n = 13
    with pytest.raises(BudgetExceededError, match="^2798251 canonical colorings exceed the budget of 1000000$"):
        exhaustive_ar(13, 4)
    with pytest.raises(BudgetExceededError, match="^at least 2798251 canonical colorings exceed the budget of 1000000$"):
        exhaustive_ar(13, 5)
    with pytest.raises(BudgetExceededError, match=r"^more than 10\^5998 canonical colorings exceed the budget of 1000000$"):
        fox_spot_check(10**4)


def test_exhaustive_below_four_colors_skips_the_walk(monkeypatch):
    # no quad can be rainbow, so neither the budget nor a quad table is needed
    def walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(search, "_walk", walk)
    monkeypatch.setattr(search, "MAX_STATES", 0)
    for n, k in ((12, 1), (12, 2), (12, 3), (3, 4), (3, 10**5)):
        r = exhaustive_ar(n, k)
        assert (r.best_count, r.best_coloring.colors) == (0, (1,) * n)
    assert exhaustive_ar(200, 1).best_count == 0
    assert exhaustive_ar(30, 2).best_count == 0


def test_exhaustive_below_four_colors_refuses_the_recount_first():
    # the all-ones witness would take 16 MiB; the fast recount's limit on n refuses first
    n = counting._MAX_N + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^n={n} is too large for int64 histogram sums"):
            exhaustive_ar(n, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# (n, k) -> (count, witness) with k > n: every quad of [n] is rainbow under
# the all-distinct coloring, the first maximizer
MANY_COLORS = {
    (5, 6): (3, (1, 2, 3, 4, 5)),
    (7, 9): (13, (1, 2, 3, 4, 5, 6, 7)),
    (8, 12): (22, (1, 2, 3, 4, 5, 6, 7, 8)),
}


@pytest.mark.parametrize("n, k", MANY_COLORS)
def test_exhaustive_with_more_colors_than_elements(n, k):
    r = exhaustive_ar(n, k)
    assert (r.best_count, r.best_coloring.colors) == MANY_COLORS[n, k]
    assert r.best_count == total_quads_formula(n) and r.best_coloring.k == k


def test_exhaustive_many_colors_costs_what_n_colors_cost():
    # a canonical coloring of [6] uses at most 6 colors, so k = 10**5 must not size anything
    tracemalloc.start()
    try:
        r = exhaustive_ar(6, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = exhaustive_ar(6, 6)
    assert (r.best_count, r.best_coloring.colors) == (want.best_count, want.best_coloring.colors)
    assert peak < 64 * 1024


def test_exhaustive_dominates_any_coloring():
    r = exhaustive_ar(8, 4)
    for seed in range(10):
        c = random_coloring(8, 4, seed)
        assert count_rainbow_naive(c).rainbow <= r.best_count
    assert count_rainbow_naive(mod_coloring(8, 4)).rainbow <= r.best_count


def test_exhaustive_witness_is_first_maximizer():
    # the pruned walk must report the lexicographically first maximizing canonical coloring
    cases = [(n, 3) for n in range(1, 9)] + [(n, 4) for n in range(1, 9)]
    cases += [(n, 5) for n in range(1, 8)]
    cases += [(n, 6) for n in range(1, 6)]  # k > n: no mod-k coloring seeds the best count
    for n, k in cases:
        first = max(
            brute_canonical(n, k),
            key=lambda cols: count_rainbow_naive(Coloring(Domain.INTERVAL, n, k, cols)).rainbow,
        )
        assert exhaustive_ar(n, k).best_coloring.colors == first


def walk_checked(n, k, keep):
    # walks [n] with keep(pos) as the prune and checks every node entered: count
    # is the rainbow quads already closed, and alive the open quads whose colored
    # elements still show distinct colors; returns the number of nodes entered
    quads = [tuple(row) for q in enumerate_quads(n) for row in (q - 1).tolist()]
    nodes = 0

    def enter(pos, count, alive, sizes, cols):
        nonlocal nodes
        nodes += 1
        assert cols[pos:] == [0] * (n - pos) and 0 not in cols[:pos]
        assert sizes[1:] == [cols.count(c) for c in range(1, k + 1)]
        shown = [{cols[e] for e in q if e < pos} for q in quads]
        closed = [len(s) for q, s in zip(quads, shown) if q[0] < pos]
        assert count == closed.count(4)
        assert alive == sum(
            len(s) == sum(e < pos for e in q) for q, s in zip(quads, shown) if q[0] >= pos
        )
        return keep(pos)

    search._walk(n, k, enter)
    return nodes


@pytest.mark.parametrize("k", [4, 5])
def test_walk_node_invariants(k):
    for n in range(1, 10):
        nodes = walk_checked(n, k, lambda pos: True)
        assert nodes == sum(canonical_coloring_count(p, k) for p in range(1, n + 1)) + 1


@pytest.mark.parametrize("k", [4, 5])
def test_walk_node_invariants_after_pruned_subtrees(k):
    # every other node entered at odd pos skips its subtree, so its siblings and
    # their subtrees see the state the walker restored after a skip
    for n in range(4, 10):
        entered = [0] * (n + 1)

        def keep(pos):
            entered[pos] += 1
            return pos % 2 == 0 or entered[pos] % 2 == 1

        full = sum(canonical_coloring_count(p, k) for p in range(1, n + 1)) + 1
        assert walk_checked(n, k, keep) < full
        assert all(entered[1 : n + 1])


@pytest.mark.parametrize(
    "n, exhaustive_nodes, fox_nodes",
    [
        (6, 43, 1),
        (7, 158, 1),
        (8, 438, 183),
        (9, 1620, 971),
        (10, 4671, 3931),
        (11, 16484, 5601),
        (12, 45864, 3537),
    ],
)
def test_walk_enters_pinned_nodes(monkeypatch, n, exhaustive_nodes, fox_nodes):
    # the prune alone decides which nodes are entered; these counts pin it
    walk = search._walk
    nodes = 0

    def counted_walk(n, k, enter):
        def counted(*node):
            nonlocal nodes
            nodes += 1
            return enter(*node)

        walk(n, k, counted)

    monkeypatch.setattr(search, "_walk", counted_walk)
    exhaustive_ar(n, 4)
    assert nodes == exhaustive_nodes
    nodes = 0
    fox_spot_check(n)
    assert nodes == fox_nodes


@pytest.mark.parametrize(
    "run, reported",
    [(lambda: exhaustive_ar(8, 4), 10), (lambda: local_search(20, 4, 0, 2, 3), 165)],
    ids=["exhaustive", "local"],
)
def test_witness_recount_catches_a_wrong_count(monkeypatch, run, reported):
    # a fast counter one above the truth must make each search refuse its own result
    fast = search.count_rainbow_fast
    monkeypatch.setattr(search, "count_rainbow_fast", lambda c: fast(c) + 1)
    with pytest.raises(
        AssertionError, match=f"^witness recount mismatch: reported {reported}, fast {reported + 1}$"
    ):
        run()


def test_walk_leaves_no_cyclic_garbage():
    # the walker's quad tables are freed when it returns, not by the cyclic collector
    exhaustive_ar(9, 4)  # first calls may fill lazy caches
    fox_spot_check(9)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        exhaustive_ar(9, 4)
        assert gc.collect() == 0
        fox_spot_check(9)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_delta_recolor_hand_case():
    c = Coloring(Domain.INTERVAL, 5, 4, (1, 2, 3, 4, 1))
    assert delta_recolor(c, 5, 2) == -1
    assert delta_recolor(c, 5, 1) == 0  # same color


def test_delta_recolor_rejects_bad_args():
    c = mod_coloring(6, 4)
    with pytest.raises(ValueError):
        delta_recolor(c, 0, 1)
    with pytest.raises(ValueError):
        delta_recolor(c, 3, 5)
    with pytest.raises(ValueError):
        delta_recolor(mod_coloring(8, 4, Domain.CYCLIC), 1, 2)


@given(st.integers(5, 40), st.integers(4, 6), st.integers(0, 10**6), st.data())
@settings(max_examples=60, deadline=None)
def test_delta_matches_recount(n, k, seed, data):
    c = random_coloring(n, k, seed)
    i = data.draw(st.integers(1, n))
    newcolor = data.draw(st.integers(1, k))
    recolored = Coloring(
        Domain.INTERVAL, n, k, c.colors[: i - 1] + (newcolor,) + c.colors[i:]
    )
    want = count_rainbow_naive(recolored).rainbow - count_rainbow_naive(c).rainbow
    assert delta_recolor(c, i, newcolor) == want


def test_delta_matches_recount_large_n():
    c = random_coloring(100, 4, 17)
    base = count_rainbow_naive(c).rainbow
    for i, newcolor in ((1, 3), (50, 2), (100, 4)):
        recolored = Coloring(
            Domain.INTERVAL, 100, 4, c.colors[: i - 1] + (newcolor,) + c.colors[i:]
        )
        assert delta_recolor(c, i, newcolor) == count_rainbow_naive(recolored).rainbow - base


def test_delta_recolor_tables_only_the_colors_that_occur():
    # labels do not change rainbow counts: at k = 10**12 the table covers the
    # colors that occur and newcolor, so it costs what the relabelled coloring costs
    big = 10**12
    labels = {1: 1, 2: 7, 3: 10**9, 4: big - 1, 5: big}
    rng = np.random.default_rng(5)
    small = Coloring(Domain.INTERVAL, 10, 5, tuple(int(x) for x in rng.integers(1, 5, 10)))
    c = Coloring(Domain.INTERVAL, 10, big, tuple(labels[x] for x in small.colors))
    start = time.perf_counter()
    for i in range(1, 11):
        for new in labels:
            assert delta_recolor(c, i, labels[new]) == delta_recolor(small, i, new)
    assert time.perf_counter() - start < 1
    # one table of m colors at n costs m n^2 + 2^15 steps, under search.MAX_CLIMB_WORK
    with pytest.raises(ValueError, match="^a gain table at n=11180 over 4 colors would take 500002368 steps"):
        delta_recolor(mod_coloring(11180, 4), 1, 2)


def fresh_rows(cols, k):
    # T and C[1..k] of every element index straight from the definition: each
    # quad through i whose other three elements show three distinct colors
    n = len(cols)
    rows = [[0] * (k + 1) for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                d = b + c - a  # a < b < c < d: only a + d = b + c can balance
                if not c < d < n:
                    continue
                quad = (a, b, c, d)
                for i in quad:
                    others = {cols[e] for e in quad if e != i}
                    if len(others) == 3:
                        rows[i][0] += 1
                        for col in others:
                            rows[i][col] += 1
    return rows


@given(st.integers(5, 40), st.integers(4, 8), st.integers(0, 10**6), st.data())
@settings(max_examples=40, deadline=None)
def test_gain_table_stays_exact(n, k, seed, data):
    cols = list(random_coloring(n, k, seed).colors)
    for _ in range(data.draw(st.integers(1, 4))):
        p = data.draw(st.integers(0, n - 1))
        cols[p] = data.draw(st.integers(1, k).filter(lambda col: col != cols[p]))
    assert_table_is_c(cols, k)


def assert_table_is_c(cols, k):
    # the table holds C alone; T, each quad showing three colors, is sum C / 3
    table = search._gain_table(cols, k)
    rows = fresh_rows(cols, k)
    assert table.dtype == np.int64 and table.shape == (len(cols), k)
    assert table.tolist() == [row[1:] for row in rows]
    assert all(3 * row[0] == sum(row[1:]) for row in rows)
    count, _, _ = search._best_move(np.array(cols), k)
    assert count == count_rainbow_naive(Coloring(Domain.INTERVAL, len(cols), k, tuple(cols))).rainbow


def test_gain_table_on_skewed_colorings():
    # one large class, unused colors and n < k: the x = e term tallies a class
    # in several blocks, or a row holds no same-colored pair but its own
    for cols, k in (([1] * 150 + [2, 3, 4, 2], 4), ([3, 1, 3, 5, 3], 7), ([2], 4), ([1, 2], 4)):
        assert_table_is_c(cols, k)


@pytest.mark.parametrize("n", [300, 1000])
@pytest.mark.parametrize("k", [4, 7])
def test_best_move_counts_at_larger_n(n, k):
    # the table's count, sum_e (sum C_e - 3 C_e[cols[e]]) / 12, past the n the
    # hypothesis test reaches
    for seed in (1, 2):
        c = random_coloring(n, k, seed)
        assert search._best_move(np.array(c.colors), k)[0] == counting.count_rainbow_fast(c)


# (n, k, seed, restarts, max_moves) -> best_count, moves and witness colors,
# recorded with the climb that recomputed every element's gains on every move
PINNED_CLIMBS = [
    ((60, 4, 511025150, 4, 10), 4495, 10, "1234" * 15),
    ((60, 8, 511025150, 4, 6), 10095, 6, "12345678" * 7 + "1234"),
    ((26, 4, 0, 6, 400), 370, 61, "12143432121434321214343212"),
    ((17, 4, 0, 6, 400), 101, 34, "24313424213124213"),
    ((8, 5, 1, 6, 400), 13, 11, "25434125"),
    ((45, 7, 11, 3, 25), 3702, 25, "1234567" * 6 + "123"),
    ((200, 4, 511025150, 2, 30), 166650, 30, "1234" * 50),
]


@pytest.mark.parametrize("args, best, moves, witness", PINNED_CLIMBS)
def test_local_search_pinned(args, best, moves, witness):
    r = local_search(*args)
    assert (r.best_count, r.moves) == (best, moves)
    assert "".join(map(str, r.best_coloring.colors)) == witness


def test_climb_pinned_at_200():
    # the n = 200 pin above reports its mod-k start; this is the climb of its
    # random start, pinned with the climb that updated rows along the quads
    # through each moved element, and replayed on quad lists in bench/oracle.py
    cols = np.array(random_coloring(200, 4, 511025151).colors)
    assert search._climb(cols, 4, 30) == (67611, 30)
    witness = Coloring(Domain.INTERVAL, 200, 4, tuple(cols.tolist()))
    assert count_rainbow_naive(witness).rainbow == 67611
    assert "".join(map(str, witness.colors)) == CLIMB_200


CLIMB_200 = (
    "43243134341131124121234333342214321224311344234321341222321244214333"
    "24331123242431121424341331414121241324341234314321244311224131341334"
    "2443322143212341133422113414122431422112422414133414213223432124"
)


def test_local_search_memory():
    # one gain table at a time, freed before the witness recount by the fast counter
    local_search(60, 8, 511025150, 4, 6)  # first calls may fill lazy caches
    tracemalloc.start()
    try:
        local_search(60, 8, 511025150, 4, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 44 * 1024


def test_local_search_deterministic():
    a = local_search(30, 4, seed=5, restarts=3, max_moves=200)
    b = local_search(30, 4, seed=5, restarts=3, max_moves=200)
    assert a == b
    assert a.method == "local"
    assert not a.exact


def test_local_search_dominates_mod_start():
    for n, k in ((20, 4), (25, 5)):
        mod_count = count_rainbow_naive(mod_coloring(n, k)).rainbow
        r = local_search(n, k, seed=0, restarts=2, max_moves=500)
        assert r.best_count >= mod_count


def test_local_search_zero_budget_reports_mod_start():
    r = local_search(16, 4, seed=9, restarts=5, max_moves=0)
    assert r.best_count == count_rainbow_naive(mod_coloring(16, 4)).rainbow
    assert r.moves == 0


def test_local_search_never_beats_exact_maximum():
    exact = exhaustive_ar(8, 4).best_count
    r = local_search(8, 4, seed=3, restarts=4, max_moves=300)
    assert r.best_count <= exact


def test_local_search_crosscheck_n12():
    # one mid-size anchor: hill climbing lands between the mod start and the true maximum
    exact = exhaustive_ar(12, 4)
    assert exact.best_count == 37
    r = local_search(12, 4, seed=1, restarts=4, max_moves=2000)
    assert count_rainbow_naive(mod_coloring(12, 4)).rainbow <= r.best_count <= 37


def test_local_search_stop_reason():
    # every climb of (20, 4) ends at a local maximum well inside 500 moves
    assert local_search(20, 4, seed=0, restarts=2, max_moves=500).stop == "local maximum"
    r = local_search(20, 4, seed=0, restarts=2, max_moves=3)
    assert (r.moves, r.stop) == (3, "move budget")
    assert local_search(16, 4, seed=9, restarts=5, max_moves=0).stop == "move budget"


def test_local_search_runs_past_the_scan_ceiling():
    # the climb scans no quads, so the first n the naive scans refuse climbs
    # on its work budget alone; the mod-4 start is a local maximum, and the
    # random start spends the moves
    n = next(n for n in range(4, 10**4) if total_quads_formula(n) > SCAN_CEILING)
    assert n == 495
    r = local_search(n, 4, seed=0, restarts=2, max_moves=3)
    assert (r.moves, r.stop) == (3, "move budget")
    assert r.best_count == counting.count_rainbow_fast(r.best_coloring) >= counting.count_rainbow_fast(mod_coloring(n, 4))


def test_local_search_checks_work_ceiling(monkeypatch):
    # one gain table a start and a move, refused before the first is built
    monkeypatch.setattr(search, "mod_coloring", lambda *a: pytest.fail("start built"))
    monkeypatch.setattr(search, "_gain_table", lambda *a: pytest.fail("table built"))
    for n, k, restarts, moves in ((200, 4, 10**7, 1000), (12, 4, 1, 10**6), (494, 32, 70, 0)):
        work = (restarts + moves) * (k * n * n + 2**15)
        assert work > search.MAX_CLIMB_WORK
        with pytest.raises(ValueError, match=f"would take up to {work} gain-table steps, over the ceiling"):
            local_search(n, k, seed=0, restarts=restarts, max_moves=moves)
    # the README's example and the largest climb pinned above stay admitted
    assert (8 + 10000) * (4 * 40**2 + 2**15) <= search.MAX_CLIMB_WORK
    assert (2 + 30) * (4 * 200**2 + 2**15) <= search.MAX_CLIMB_WORK


def test_local_search_rejects_bad_args():
    with pytest.raises(ValueError):
        local_search(10, 3, seed=0, restarts=1, max_moves=10)
    with pytest.raises(ValueError):
        local_search(3, 4, seed=0, restarts=1, max_moves=10)
    with pytest.raises(ValueError):
        local_search(10, 4, seed=0, restarts=0, max_moves=10)


def test_readme_search_example():
    # the documented n=40 run lands exactly on the mod-start count
    r = local_search(40, 4, seed=1, restarts=8, max_moves=10000)
    assert r.best_count == 1330
    assert count_rainbow_naive(mod_coloring(40, 4)).rainbow == 1330


def test_result_json():
    r = exhaustive_ar(5, 4)
    obj = json.loads(result_to_json(r))
    assert obj["method"] == "exhaustive"
    assert obj["best_count"] == 2
    assert obj["exact"] is True
    assert obj["coloring"]["colors"] == list(r.best_coloring.colors)
    assert obj["stop"] == r.stop == "complete"
    local = json.loads(result_to_json(local_search(20, 4, seed=0, restarts=2, max_moves=3)))
    assert local["stop"] == "move budget"


@pytest.mark.parametrize("n", range(4, 12))
def test_fox_small(n):
    assert fox_spot_check(n) is (n not in (5, 11))


@pytest.mark.parametrize("n", range(4, 9))
def test_fox_matches_brute_force(n):
    # every canonical 4-coloring whose classes all reach ceil((n + 1)/6), scored by the naive scan
    threshold = -((n + 1) // -6)
    balanced = [
        cols for cols in brute_canonical(n, 4) if min(map(cols.count, range(1, 5))) >= threshold
    ]
    expected = all(
        count_rainbow_naive(Coloring(Domain.INTERVAL, n, 4, cols)).rainbow for cols in balanced
    )
    assert fox_spot_check(n) is expected


def test_fox_budget(monkeypatch):
    monkeypatch.setattr(search, "MAX_STATES", 10)
    with pytest.raises(BudgetExceededError, match="^700075 canonical colorings exceed the budget of 10$"):
        fox_spot_check(12)


def test_fox_rejects_n_below_four():
    with pytest.raises(ValueError, match="^need n >= 4, got 3$"):
        fox_spot_check(3)


def test_searches_never_reach_the_naive_scan(monkeypatch):
    monkeypatch.setattr(counting, "_naive_tallies", lambda c, cyclic: pytest.fail("naive scan"))
    assert exhaustive_ar(11, 4).best_count == 26
    assert fox_spot_check(11) is False
    assert local_search(30, 4, 1, 2, 5).stop == "move budget"
