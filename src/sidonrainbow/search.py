"""Search over colorings: exhaustive maxima at tiny n, hill climbing beyond.

One depth-first walker serves the exhaustive maximum and the Fox spot check.
It visits canonical colorings only: the first element of each new color class
receives the smallest unused color, which removes the k! label symmetry
exactly. Each quad is scored once, when its largest element is colored, and
the partial rainbow count travels down the tree with the number of quads
still able to turn rainbow: those not yet scored whose colored elements show
distinct colors. So a caller's hook can prune a subtree from its partial
count, that bound and the class sizes; the exhaustive maximum prunes on
count plus the bound, from one below the mod-k coloring's fast count. The
walker keeps its quad sets as bitsets, one bit per quad of a Python int, so
a node costs a few big-int operations, not a pass over its quads, and it asks
the hook about each child in the parent's color loop, so a child the hook
refuses costs no call frame.

One recolor-gain table serves hill climbing and delta_recolor. An element's
row holds T, the quads through the element whose other three elements show
three distinct colors, and C[col], how many of those show col, so the element
wearing col makes T - C[col] of its quads rainbow. A climb rebuilds the table
from integer convolutions, O(k n^2), after every move, rather than updating
rows along the O(n^2) quads through the recolored element.

Every reported count is recounted from its witness by
counting.count_rainbow_fast, which shares no code with the walker's bitsets
or the gain table.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .core import Coloring, Domain, _check_ceiling, coloring_dict, mod_coloring, random_coloring
from .counting import _check_headroom, count_rainbow_fast
from .enumeration import enumerate_quads


class BudgetExceededError(Exception):
    """The requested search would visit more states than allowed."""


@dataclass(frozen=True)
class SearchResult:
    method: str  # "exhaustive" or "local"
    best_count: int
    best_coloring: Coloring
    restarts: int
    moves: int
    seed: int
    exact: bool
    stop: str  # why the search ended: "complete", "local maximum" or "move budget"


def result_to_json(r: SearchResult) -> str:
    """One-line JSON export of a search result: its fields in order, the witness
    coloring last as "coloring"."""
    obj = {f.name: getattr(r, f.name) for f in fields(r) if f.name != "best_coloring"}
    obj["coloring"] = coloring_dict(r.best_coloring)
    return json.dumps(obj, separators=(",", ":"))


def _verified(result: SearchResult) -> SearchResult:
    # the emitted count must survive a recount of the witness by the fast
    # counter, which shares nothing with the walker's bitsets or the gain table
    actual = count_rainbow_fast(result.best_coloring)
    if actual != result.best_count:
        raise AssertionError(
            f"witness recount mismatch: reported {result.best_count}, fast {actual}"
        )
    return result


def canonical_coloring_count(n: int, k: int) -> int:
    """Number of canonical colorings: partitions of [n] into at most k blocks.

    No search path calls it; the walker's node-count tests and the benchmark's
    smoke test compare against it.
    """
    # Stirling numbers of the second kind S(i, j), only for j <= min(k, n)
    m = min(k, n)
    row = [1] + [0] * m  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, m + 1)]
    return sum(row[1:])


# The most canonical colorings with at most four colors, (4^n + 6 * 2^n + 8) / 24,
# that one walk of [n] may cover: n = 12 (700,075) at most. exhaustive_ar takes
# 0.025 s there at k = 4 and at most 0.11 s at any k on a 2-vCPU x86 host.
MAX_STATES = 1_000_000


def _check_budget(n: int, k: int) -> None:
    """Refuse a walk of [n], 4 <= k <= n, when its canonical colorings with at
    most four colors, all of them at k = 4 and a floor above, exceed MAX_STATES.
    """
    count = f"more than 10^{(2 * n - 5) * 3 // 10}"  # the count exceeds 2^(2n - 5)
    if n <= 7144:  # past it the count has more digits than CPython's default limit
        states = ((1 << 2 * n) + (6 << n) + 8) // 24
        if states <= MAX_STATES:
            return
        try:  # str() refuses more digits than sys.get_int_max_str_digits()
            count = f"at least {states}" if k > 4 else str(states)
        except ValueError:
            pass
    raise BudgetExceededError(f"{count} canonical colorings exceed the budget of {MAX_STATES}")


def _walk(n: int, k: int, enter: Callable[[int, int, int, list[int], list[int]], bool]) -> None:
    """Depth-first walk of the canonical k-colorings of [n], colors ascending.

    Each quad is scored once, at the depth where its largest element gets its
    color, and the running rainbow count is passed down the tree. So is alive,
    the quads not yet scored whose colored elements still show distinct
    colors: only those can still turn rainbow. At every node, elements
    0..pos-1 colored, enter(pos, count, alive, sizes, cols) is called once,
    alive given as a number of quads; a False return skips the node's
    subtree. cols[i] is element i's color (0 while unassigned) and sizes[c]
    is the size of color class c. The root is asked before the walk and every
    other node in its parent's color loop, so only a node admitted with
    elements left to color gets a frame of rec. Callers check the state
    budget first.

    Quad sets are bitsets, one bit per quad of a Python int: inq[e] holds the
    quads through element e, closing[e] those whose largest element is e, and
    shows[c] those with an element colored c so far. Coloring pos with c
    scores the live closing quads outside shows[c] and kills the live quads
    through pos inside it, a few big-int operations a node.
    """
    inq = [0] * n
    closing = [0] * n
    bit = 1
    for q in enumerate_quads(n):
        # a row lists the quad's elements largest first
        for row in (q - 1).tolist():
            closing[row[0]] |= bit
            for e in row:
                inq[e] |= bit
            bit <<= 1
    shows = [0] * (k + 1)
    cols = [0] * n
    sizes = [0] * (k + 1)

    def rec(pos: int, used: int, count: int, alive: int):
        # an admitted node with pos < n; the live quads that close here are
        # scored at this node, not passed down
        close = alive & closing[pos]
        alive ^= close
        scored = count + close.bit_count()
        through = inq[pos]
        reach = alive & through  # the live open quads through pos
        live = alive.bit_count()
        nxt = pos + 1
        inner = nxt < n
        for c in range(1, min(used + 1, k) + 1):
            shown = shows[c]
            cols[pos] = c
            sizes[c] += 1
            # those showing c already: they fail to close rainbow or die open
            hit = reach & shown
            child = scored - (close & shown).bit_count()
            if enter(nxt, child, live - hit.bit_count(), sizes, cols) and inner:
                shows[c] = shown | through
                rec(nxt, max(used, c), child, alive ^ hit)
                shows[c] = shown
            sizes[c] -= 1
        cols[pos] = 0

    try:
        everything = bit - 1
        if enter(0, 0, everything.bit_count(), sizes, cols) and n:
            rec(0, 0, 0, everything)
    finally:
        del rec  # rec refers to itself; break that cycle so the tables go now


def exhaustive_ar(n: int, k: int) -> SearchResult:
    """Exact maximum rainbow count over all k-colorings of [n].

    Branch and bound over the canonical colorings: a subtree is skipped when
    its partial count plus the quads still able to turn rainbow (not yet
    scored, colored elements all distinct) cannot beat the best so far.
    Leaves come in lexicographic order, so the reported witness is the first
    maximizer in that order.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    # a canonical coloring of [n] uses at most n colors
    m = min(k, n)
    if m < 4:
        # no quad can be rainbow, so the first canonical coloring, all ones, is
        # the first maximizer; the fast recount's limit on n is checked before
        # that witness is built
        _check_headroom(n)
        best_count, best_cols = 0, (1,) * n
    else:
        _check_budget(n, m)
        # the mod-m coloring is a canonical leaf, so from one below its count the
        # prune skips no maximizer; only a wrong count leaves it the witness
        seed = mod_coloring(n, m)
        best_count, best_cols = count_rainbow_fast(seed) - 1, seed.colors

        def enter(pos: int, count: int, alive: int, sizes: list[int], cols: list[int]) -> bool:
            nonlocal best_count, best_cols
            if count + alive <= best_count:
                return False
            if pos == n:
                best_count = count
                best_cols = tuple(cols)
            return True

        _walk(n, m, enter)
    witness = Coloring(Domain.INTERVAL, n, k, best_cols)
    return _verified(
        SearchResult("exhaustive", best_count, witness, 0, 0, 0, exact=True, stop="complete")
    )


# Same-colored pairs (e, z) that _gain_table tallies at a time for its x = e
# term: 16 KiB per intp matrix, or one row of them when a class is larger.
_BLOCK = 1 << 11


def _gain_table(cols: Sequence[int], k: int) -> np.ndarray:
    """Gain rows [T, C[1], ..., C[k]] of every element index, as an (n, k + 1)
    int64 array.

    T counts the quads through element e whose other three elements show
    three distinct colors, and C[col] those of them that show col, so e
    wearing col makes T - C[col] of its quads rainbow. Each quad through e is
    found once from e's side partner x, as a two-colored pair {y, z} with
    y + z = e + x that avoids x's color; {e, x} itself shows x's color and
    drops out. With I_c color c's indicator, by pair sum s:

      R_c = I_c * (1 - I_c)          two-colored pairs showing c,
      H_c = sum_c' R_c' / 2 - R_c    two-colored pairs avoiding c.

    T sums H_{c_x}(e + x) over x; C[col] sums H_col(e + x) over the x of
    color col and R_col(e + x) - (I_col * I_{c_x})(e + x) over the others,
    whose products add up to I_col convolved with the difference histogram
    of the other colors' same-colored pairs: five integer np.convolve or
    np.correlate calls of O(n^2) per color, no float, no FFT. The x = e term,
    read at s = 2e, is taken off: H_{c_e}(2e) in T and C[c_e], and in another
    C[col] R_col(2e) less the y of color col whose mirror 2e - y has e's
    color, tallied over the same-colored pairs (e, z) as y = 2e - z.
    """
    own = np.asarray(cols) - 1
    n = len(own)
    ind = (own == np.arange(k)[:, None]).astype(np.int64)
    R = np.empty((k, 2 * n - 1), dtype=np.int64)
    G = np.empty((k, 2 * n - 1), dtype=np.int64)
    for c, i in enumerate(ind):
        R[c] = np.convolve(i, 1 - i)
        G[c] = np.correlate(i, i, "full")
    half = R.sum(axis=0) // 2
    np.subtract(G.sum(axis=0), G, out=G)  # same-colored pairs of the other colors, by difference
    table = np.zeros((n, k + 1), dtype=np.int64)
    for c, i in enumerate(ind):
        h = np.correlate(half - R[c], i, "valid")
        table[:, 0] += h
        h += np.correlate(R[c], 1 - i, "valid")
        h -= np.convolve(G[c], i, "valid")
        table[:, c + 1] = h
    del ind, G, h  # the x = e tally below sets the peak; hold little under it
    # the x = e term; members[c] lists color c's elements, padded with 2n,
    # whose mirror 2e - 2n falls outside [0, n) as y = n, the spare color k
    even = 2 * np.arange(n)
    self_h = half[even] - R[own, even]
    term = R.T[even]
    del R
    order = np.argsort(own, kind="stable")
    sizes = np.bincount(own, minlength=k)
    members = np.full((k, sizes.max()), 2 * n)
    members[own[order], np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)] = order
    spare = np.append(own, k)
    rows = max(1, _BLOCK // members.shape[1])
    for a in range(0, n, rows):
        y = members[own[a : a + rows]]
        np.subtract(even[a : a + rows, None], y, out=y)
        y[(y < 0) | (y >= n)] = n
        y = spare[y]
        y += (k + 1) * np.arange(len(y))[:, None]
        term[a : a + rows] -= np.bincount(
            y.ravel(), minlength=len(y) * (k + 1)
        ).reshape(-1, k + 1)[:, :k]
    term[np.arange(n), own] = self_h
    table[:, 0] -= self_h
    table[:, 1:] -= term
    return table


def delta_recolor(c: Coloring, i: int, newcolor: int) -> int:
    """Exact change in rainbow count from recoloring element i."""
    if c.domain is not Domain.INTERVAL:
        raise ValueError("delta_recolor expects an interval coloring")
    if not 1 <= i <= c.n:
        raise ValueError(f"element {i} outside [1, {c.n}]")
    if not 1 <= newcolor <= c.k:
        raise ValueError(f"color {newcolor} outside [1, {c.k}]")
    # rainbow counts do not depend on the labels: the table covers only the
    # colors that occur and newcolor, relabelled 1..m
    rank = {col: j for j, col in enumerate(sorted({*c.colors, newcolor}), 1)}
    m = len(rank)
    work = m * c.n * c.n + 2**15
    _check_ceiling(work, MAX_CLIMB_WORK, f"a gain table at n={c.n} over {m} colors would take {work} steps")
    row = _gain_table([rank[col] for col in c.colors], m)[i - 1]
    return int(row[rank[c.colors[i - 1]]] - row[rank[newcolor]])


def _best_move(cols: np.ndarray, k: int) -> tuple[int, int, int]:
    """(rainbow count, gain, move) of cols from a fresh gain table. The count
    is sum_e (T_e - C_e[cols[e]]) / 4, a rainbow quad being rainbow through
    each of its elements. Move e * k + col - 1 recolors element index e to col,
    gaining C_e[cols[e]] - C_e[col]; it is the first best in that order."""
    table = _gain_table(cols, k)
    here = table[np.arange(len(cols)), cols]
    gain = (here[:, None] - table[:, 1:]).ravel()
    best = int(gain.argmax())
    return int((table[:, 0] - here).sum()) // 4, int(gain[best]), best


def _climb(cols: np.ndarray, k: int, move_budget: int) -> tuple[int, int]:
    """Best-improvement hill climbing in place; returns (rainbow count, moves used).

    The gain table is rebuilt after each move; one table is alive at a time."""
    count, gain, best = _best_move(cols, k)
    moves = 0
    while gain > 0 and moves < move_budget:
        cols[best // k] = best % k + 1
        count += gain
        moves += 1
        if moves < move_budget:
            _, gain, best = _best_move(cols, k)
    return count, moves


# The most gain-table work one local search may plan: each start and each move
# builds one table, costing k n^2 convolution steps plus a fixed 2**15 for its
# numpy calls (about 6 ns a step and 0.15 ms a table on a 2-vCPU x86 host,
# numpy 2.4). The tables the ceiling allows took 2.2 to 2.9 s to build at
# n = 12 to 494 and k = 4 or 32, and the largest climbs it admits at k = 4
# took 2.4 s at n = 1000 (123 tables), 1.5 s at n = 5000 (4 tables) and 3.0 s
# at n = 11179 (one table), the largest n it admits. This is the only bound on
# a local search: the climb scans no quads. delta_recolor's one table over m
# colors is bounded the same way.
MAX_CLIMB_WORK = 500_000_000


def local_search(
    n: int, k: int, seed: int, restarts: int, max_moves: int
) -> SearchResult:
    """Hill climbing over single-element recolors from several starts.

    Start 0 is the mod-k coloring; start r >= 1 draws a random coloring with
    seed + r. Within a climb the best strictly improving move wins, ties going
    to the smallest element and then the smallest color. Deterministic. The
    search stops at the "move budget" or, after the last start, at a "local
    maximum".
    """
    if k < 4 or n < k:
        raise ValueError(f"need n >= k >= 4, got n={n}, k={k}")
    if restarts < 1:
        raise ValueError("need at least one start")
    if max_moves < 0:
        raise ValueError("move budget must be nonnegative")
    work = (restarts + max_moves) * (k * n * n + 2**15)
    _check_ceiling(
        work, MAX_CLIMB_WORK,
        f"{restarts} starts and {max_moves} moves at n={n}, k={k} would take up to {work} gain-table steps",
    )
    best_count, best_cols, budget_left = -1, None, max_moves
    for r in range(restarts):
        start = random_coloring(n, k, seed + r) if r else mod_coloring(n, k)
        cols = np.array(start.colors)
        count, used = _climb(cols, k, budget_left)
        budget_left -= used
        if count > best_count:
            best_count, best_cols = count, tuple(cols.tolist())
        if budget_left <= 0:
            break
    witness = Coloring(Domain.INTERVAL, n, k, best_cols)
    stop = "move budget" if budget_left <= 0 else "local maximum"
    return _verified(
        SearchResult(
            "local", best_count, witness, restarts, max_moves - budget_left, seed,
            exact=False, stop=stop,
        )
    )


def fox_spot_check(n: int) -> bool:
    """Do all 4-colorings with every class of size at least (n+1)/6 have a rainbow quad?

    Walks the canonical colorings, skipping subtrees that already hold a
    rainbow quad or can no longer fill every class to the threshold.
    The answer depends on n: False at n = 5 and 11, True at other n in 4..11.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    _check_budget(n, 4)
    threshold = -((n + 1) // -6)  # ceil((n+1)/6)
    # lacking[pos]: the elements the classes still lack at the node entered at
    # pos, threshold less min(size, threshold) each; element pos - 1 lowers it
    # by one while its class is still short, and the walk is depth first
    lacking = [4 * threshold] * (n + 1)
    ok = True

    def enter(pos: int, count: int, alive: int, sizes: list[int], cols: list[int]) -> bool:
        nonlocal ok
        if not ok or count:
            return False
        if pos:
            lacking[pos] = lacking[pos - 1] - (sizes[cols[pos - 1]] <= threshold)
        if lacking[pos] > n - pos:
            return False
        if pos == n:
            ok = False  # a feasible coloring without a rainbow quad
        return True

    _walk(n, 4, enter)
    return ok
