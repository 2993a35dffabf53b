"""Search over colorings: exhaustive maxima at tiny n, hill climbing beyond.

Exhaustive enumeration walks canonical colorings only: the first element of
each new color class receives the smallest unused color, which removes the k!
label symmetry exactly. The reflection x -> n+1-x also preserves rainbow
counts (it maps Sidon 4-sets to Sidon 4-sets); exploiting it is optional and
guarded by an equality test rather than assumed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .core import Coloring, Domain, mod_coloring, random_coloring
from .counting import count_rainbow_naive, iter_quad_tuples


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


def _quads_zero_based(n: int) -> list[tuple[int, int, int, int]]:
    return [(a - 1, b - 1, c - 1, d - 1) for a, b, c, d in iter_quad_tuples(n)]


def _canonicalize(cols: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel colors by first occurrence (1-based colors in, 1-based out)."""
    relabel: dict[int, int] = {}
    out = []
    for c in cols:
        if c not in relabel:
            relabel[c] = len(relabel) + 1
        out.append(relabel[c])
    return tuple(out)


def exhaustive_ar(
    n: int,
    k: int,
    max_states: int = 1_000_000,
    use_reflection: bool = False,
) -> SearchResult:
    """Exact maximum rainbow count over all k-colorings of [n].

    Walks canonical colorings depth-first (colors ascending at each element),
    so the reported witness is the first maximizer in that order. When
    use_reflection is set, a leaf whose reflected-and-relabeled form is
    strictly smaller is skipped; its mirror scores the same.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    states = canonical_coloring_count(n, k)
    if states > max_states:
        raise BudgetExceededError(
            f"{states} canonical colorings exceed the budget of {max_states}"
        )
    quads = _quads_zero_based(n)
    cols = [0] * n  # 1-based colors; 0 = unassigned
    best_count = -1
    best_cols: tuple[int, ...] = ()

    def score() -> int:
        masks = [1 << c for c in cols]
        cnt = 0
        for a, b, c_, d in quads:
            if (masks[a] | masks[b] | masks[c_] | masks[d]).bit_count() == 4:
                cnt += 1
        return cnt

    def rec(pos: int, used: int):
        nonlocal best_count, best_cols
        if pos == n:
            if use_reflection:
                mirrored = _canonicalize(tuple(reversed(cols)))
                if mirrored < tuple(cols):
                    return
            cnt = score()
            if cnt > best_count:
                best_count = cnt
                best_cols = tuple(cols)
            return
        for c in range(1, min(used + 1, k) + 1):
            cols[pos] = c
            rec(pos + 1, max(used, c))
        cols[pos] = 0

    rec(0, 0)
    witness = Coloring(Domain.INTERVAL, n, k, best_cols)
    return _verified(
        SearchResult(best_count, witness, SearchMethod.EXHAUSTIVE, 0, 0, 0, exact=True)
    )


def delta_recolor(c: Coloring, i: int, newcolor: int) -> int:
    """Exact change in rainbow count from recoloring element i.

    Only quads through i matter. Each such quad is generated once from i's
    side partner x: the opposite side is any other pair {y, z} with
    y + z = i + x avoiding both.
    """
    if c.domain is not Domain.INTERVAL:
        raise ValueError("delta_recolor expects an interval coloring")
    n = c.n
    if not 1 <= i <= n:
        raise ValueError(f"element {i} outside [1, {n}]")
    if not 1 <= newcolor <= c.k:
        raise ValueError(f"color {newcolor} outside [1, {c.k}]")
    cur = c.colors[i - 1]
    if newcolor == cur:
        return 0
    masks = [1 << col for col in c.colors]
    cur_bit, new_bit = 1 << cur, 1 << newcolor
    delta = 0
    for x in range(1, n + 1):
        if x == i:
            continue
        s = i + x
        mx = masks[x - 1]
        for y in range(max(1, s - n), (s - 1) // 2 + 1):
            z = s - y
            if y == i or y == x or z == i or z == x:
                continue
            m3 = mx | masks[y - 1] | masks[z - 1]
            if m3.bit_count() == 3:
                delta += (m3 & new_bit == 0) - (m3 & cur_bit == 0)
    return delta


def _climb(
    cols: list[int],
    n: int,
    k: int,
    quads: list[tuple[int, int, int, int]],
    by_elem: list[list[int]],
    move_budget: int,
) -> tuple[int, int]:
    """Best-improvement hill climbing in place; returns (rainbow count, moves used)."""
    masks = [1 << c for c in cols]
    count = 0
    for a, b, c_, d in quads:
        if (masks[a] | masks[b] | masks[c_] | masks[d]).bit_count() == 4:
            count += 1
    moves = 0
    gains = [0] * (k + 1)
    while moves < move_budget:
        best_delta, best_i, best_col = 0, -1, -1
        for i in range(n):
            for col in range(1, k + 1):
                gains[col] = 0
            # gains[col] = rainbow quads through i if i wore col, over quads
            # whose other three elements already show three distinct colors
            for qi in by_elem[i]:
                a, b, c_, d = quads[qi]
                m3 = 0
                for e in (a, b, c_, d):
                    if e != i:
                        m3 |= masks[e]
                if m3.bit_count() == 3:
                    for col in range(1, k + 1):
                        if not (m3 >> col) & 1:
                            gains[col] += 1
            base = gains[cols[i]]
            for col in range(1, k + 1):
                if col == cols[i]:
                    continue
                delta = gains[col] - base
                if delta > best_delta:
                    best_delta, best_i, best_col = delta, i, col
        if best_i < 0:
            break  # plateau or local maximum: no strictly improving move
        cols[best_i] = best_col
        masks[best_i] = 1 << best_col
        count += best_delta
        moves += 1
    return count, moves


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
    quads = _quads_zero_based(n)
    by_elem: list[list[int]] = [[] for _ in range(n)]
    for qi, q in enumerate(quads):
        for e in q:
            by_elem[e].append(qi)
    best_count, best_cols, total_moves = -1, None, 0
    budget_left = max_moves
    for r in range(restarts):
        if r == 0:
            start = mod_coloring(n, k)
        else:
            start = random_coloring(n, k, seed + r)
        cols = list(start.colors)
        count, used = _climb(cols, n, k, quads, by_elem, budget_left)
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

    Exhaustive over canonical colorings with a class-size feasibility prune.
    The answer depends on n: False at n = 5 and 11, True at other n in 4..11.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if canonical_coloring_count(n, 4) > max_states:
        raise BudgetExceededError(f"n={n} exceeds the canonical-coloring budget")
    threshold = -((n + 1) // -6)  # ceil((n+1)/6)
    quads = _quads_zero_based(n)
    cols = [0] * n
    sizes = [0] * 5
    ok = True

    def has_rainbow() -> bool:
        masks = [1 << c for c in cols]
        for a, b, c_, d in quads:
            if (masks[a] | masks[b] | masks[c_] | masks[d]).bit_count() == 4:
                return True
        return False

    def rec(pos: int, used: int):
        nonlocal ok
        if not ok:
            return
        deficit = sum(max(0, threshold - sizes[c]) for c in range(1, 5))
        if deficit > n - pos:
            return
        if pos == n:
            ok = has_rainbow()
            return
        for c in range(1, min(used + 1, 4) + 1):
            cols[pos] = c
            sizes[c] += 1
            rec(pos + 1, max(used, c))
            sizes[c] -= 1
        cols[pos] = 0

    rec(0, 0)
    return ok
