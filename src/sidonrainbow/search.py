"""Search over colorings: exhaustive maxima at tiny n, hill climbing beyond.

One depth-first walker serves the exhaustive maximum and the Fox spot check.
It visits canonical colorings only: the first element of each new color class
receives the smallest unused color, which removes the k! label symmetry
exactly. Each quad is scored once, when its largest element is colored, and
the partial rainbow count travels down the tree, so a caller's hook can prune
a subtree from its partial count and class sizes.

One recolor-gain routine serves hill climbing and delta_recolor: the rainbow
quads through an element under each of its possible colors.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .core import Coloring, Domain, mod_coloring, random_coloring
from .counting import count_rainbow_naive, iter_quad_tuples
from .enumeration import total_quads_formula


class BudgetExceededError(Exception):
    """The requested search would visit more states than allowed."""


class SearchMethod(Enum):
    EXHAUSTIVE = "exhaustive"
    LOCAL = "local"


@dataclass(frozen=True)
class SearchResult:
    best_count: int
    best_coloring: Coloring
    method: SearchMethod
    restarts: int
    moves: int
    seed: int
    exact: bool


def result_to_json(r: SearchResult) -> str:
    """One-line JSON export of a search result, witness coloring included."""
    return json.dumps(
        {
            "method": r.method.value,
            "best_count": r.best_count,
            "restarts": r.restarts,
            "moves": r.moves,
            "seed": r.seed,
            "exact": r.exact,
            "coloring": {
                "domain": r.best_coloring.domain.value,
                "n": r.best_coloring.n,
                "k": r.best_coloring.k,
                "colors": list(r.best_coloring.colors),
            },
        },
        separators=(",", ":"),
    )


def _verified(result: SearchResult) -> SearchResult:
    # the emitted count must survive a full naive recount of the witness
    actual = count_rainbow_naive(result.best_coloring).rainbow
    if actual != result.best_count:
        raise AssertionError(
            f"witness recount mismatch: reported {result.best_count}, naive {actual}"
        )
    return result


def canonical_coloring_count(n: int, k: int) -> int:
    """Number of canonical colorings: partitions of [n] into at most k blocks."""
    # Stirling numbers of the second kind, summed over block counts
    row = [1] + [0] * n  # S(0, j)
    for i in range(1, n + 1):
        new = [0] * (n + 1)
        for j in range(1, i + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return sum(row[1 : min(k, n) + 1])


def _walk(
    n: int, k: int, max_states: int, enter: Callable[[int, int, list[int], list[int]], bool]
) -> None:
    """Depth-first walk of the canonical k-colorings of [n], colors ascending.

    Each quad is scored once, at the depth where its largest element gets its
    color, and the running rainbow count is passed down the tree. At every
    node, elements 0..pos-1 colored, enter(pos, count, sizes, masks) is
    called; a False return skips the node's subtree. masks[i] is 1 << color
    (0 while unassigned) and sizes[c] is the size of color class c.
    """
    states = canonical_coloring_count(n, k)
    if states > max_states:
        raise BudgetExceededError(
            f"{states} canonical colorings exceed the budget of {max_states}"
        )
    # iter_quad_tuples lists the largest element first
    closing: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for a, b, c, d in iter_quad_tuples(n):
        closing[a - 1].append((b - 1, c - 1, d - 1))
    masks = [0] * n
    sizes = [0] * (k + 1)

    def rec(pos: int, used: int, count: int):
        if not enter(pos, count, sizes, masks) or pos == n:
            return
        m3s = [masks[a] | masks[b] | masks[d] for a, b, d in closing[pos]]
        m3s = [m for m in m3s if m.bit_count() == 3]
        for c in range(1, min(used + 1, k) + 1):
            bit = 1 << c
            masks[pos] = bit
            sizes[c] += 1
            rec(pos + 1, max(used, c), count + sum(not m & bit for m in m3s))
            sizes[c] -= 1
        masks[pos] = 0

    rec(0, 0, 0)


def exhaustive_ar(n: int, k: int, max_states: int = 1_000_000) -> SearchResult:
    """Exact maximum rainbow count over all k-colorings of [n].

    Branch and bound over the canonical colorings: a subtree is skipped when
    its partial count plus the quads not yet scored cannot beat the best so
    far. Leaves come in lexicographic order, so the reported witness is the
    first maximizer in that order.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    total = total_quads_formula(n)
    # quads whose largest element is still uncolored, by number colored
    left = [total] + [total - total_quads_formula(p) for p in range(1, n + 1)]
    best_count = -1
    best_cols: tuple[int, ...] = ()

    def enter(pos: int, count: int, sizes: list[int], masks: list[int]) -> bool:
        nonlocal best_count, best_cols
        if count + left[pos] <= best_count:
            return False
        if pos == n:
            best_count = count
            best_cols = tuple(m.bit_length() - 1 for m in masks)
        return True

    _walk(n, k, max_states, enter)
    witness = Coloring(Domain.INTERVAL, n, k, best_cols)
    return _verified(
        SearchResult(best_count, witness, SearchMethod.EXHAUSTIVE, 0, 0, 0, exact=True)
    )


def _gains(masks: list[int], i: int, k: int) -> list[int]:
    """g[col], 1 <= col <= k: rainbow quads through element index i if it wore col.

    Each quad through i is generated once from i's side partner x: the
    opposite side is any other pair {y < z} with y + z = i + x. Only quads
    whose other three elements show three distinct colors can be rainbow, so
    their color masks are tallied first; the pair {y, z} = {i, x} itself
    shows at most two colors and drops out without a test.
    """
    n = len(masks)
    tally: dict[int, int] = {}
    for x in range(n):
        if x == i:
            continue
        s = i + x
        mx = masks[x]
        for y in range(max(0, s - n + 1), (s - 1) // 2 + 1):
            m3 = mx | masks[y] | masks[s - y]
            if m3.bit_count() == 3:
                tally[m3] = tally.get(m3, 0) + 1
    g = [0] * (k + 1)
    for m3, cnt in tally.items():
        for col in range(1, k + 1):
            if not (m3 >> col) & 1:
                g[col] += cnt
    return g


def delta_recolor(c: Coloring, i: int, newcolor: int) -> int:
    """Exact change in rainbow count from recoloring element i."""
    if c.domain is not Domain.INTERVAL:
        raise ValueError("delta_recolor expects an interval coloring")
    if not 1 <= i <= c.n:
        raise ValueError(f"element {i} outside [1, {c.n}]")
    if not 1 <= newcolor <= c.k:
        raise ValueError(f"color {newcolor} outside [1, {c.k}]")
    g = _gains([1 << col for col in c.colors], i - 1, c.k)
    return g[newcolor] - g[c.colors[i - 1]]


def _climb(cols: list[int], k: int, move_budget: int) -> tuple[int, int]:
    """Best-improvement hill climbing in place; returns (count gained, moves used)."""
    masks = [1 << c for c in cols]
    gained = moves = 0
    while moves < move_budget:
        best_delta, best_i, best_col = 0, -1, -1
        for i in range(len(cols)):
            g = _gains(masks, i, k)
            base = g[cols[i]]
            for col in range(1, k + 1):
                if g[col] - base > best_delta:
                    best_delta, best_i, best_col = g[col] - base, i, col
        if best_i < 0:
            break  # plateau or local maximum: no strictly improving move
        cols[best_i] = best_col
        masks[best_i] = 1 << best_col
        gained += best_delta
        moves += 1
    return gained, moves


def local_search(
    n: int, k: int, seed: int, restarts: int, max_moves: int
) -> SearchResult:
    """Hill climbing over single-element recolors from several starts.

    Start 0 is the mod-k coloring; start r >= 1 draws a random coloring with
    seed + r. Within a climb the best strictly improving move wins, ties going
    to the smallest element and then the smallest color. Deterministic.
    """
    if k < 4 or n < k:
        raise ValueError(f"need n >= k >= 4, got n={n}, k={k}")
    if restarts < 1:
        raise ValueError("need at least one start")
    if max_moves < 0:
        raise ValueError("move budget must be nonnegative")
    best_count, best_cols, total_moves = -1, None, 0
    budget_left = max_moves
    for r in range(restarts):
        if r == 0:
            start = mod_coloring(n, k)
        else:
            start = random_coloring(n, k, seed + r)
        cols = list(start.colors)
        gained, used = _climb(cols, k, budget_left)
        count = count_rainbow_naive(start).rainbow + gained
        budget_left -= used
        total_moves += used
        if count > best_count:
            best_count, best_cols = count, tuple(cols)
        if budget_left <= 0:
            break
    witness = Coloring(Domain.INTERVAL, n, k, best_cols)
    return _verified(
        SearchResult(
            best_count, witness, SearchMethod.LOCAL, restarts, total_moves, seed, exact=False
        )
    )


def fox_spot_check(n: int, max_states: int = 1_000_000) -> bool:
    """Do all 4-colorings with every class of size at least (n+1)/6 have a rainbow quad?

    Walks the canonical colorings, skipping subtrees that already hold a
    rainbow quad or can no longer fill every class to the threshold.
    The answer depends on n: False at n = 5 and 11, True at other n in 4..11.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    threshold = -((n + 1) // -6)  # ceil((n+1)/6)
    ok = True

    def enter(pos: int, count: int, sizes: list[int], masks: list[int]) -> bool:
        nonlocal ok
        if not ok or count:
            return False
        if sum(max(0, threshold - s) for s in sizes[1:]) > n - pos:
            return False
        if pos == n:
            ok = False  # a feasible coloring without a rainbow quad
        return True

    _walk(n, 4, max_states, enter)
    return ok
