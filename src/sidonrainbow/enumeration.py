"""Enumeration and exact counting of Sidon 4-sets in [n] and Z_k.

Pairs {a < b} of [n] with a + b = l exist for max(1, l-n) <= a <= (l-1)//2, and
two distinct pairs with the same sum are automatically disjoint, so every
unordered pair of same-sum pairs is one Sidon 4-set. That observation drives
the enumerator, which builds the quads of consecutive whole pair sums as
blocks of numpy rows (x1, x2, x3, x4), and the sum-bucket counting oracle.
"""
from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from .core import ModularSidonQuad, _check_ceiling


# The most quads one scan may visit. At the ceiling (n = 494 for [n] through
# total_quads_formula, n = 432 for Z_n through modular_count_formula) the naive
# rainbow counters take about 0.1 s and total's checked enumeration about
# 0.06 s on a 2-vCPU x86 host. The non-rainbow floor takes as many
# same-colored pairs, about 0.6 s at the ceiling there.
SCAN_CEILING = 10_000_000


def _check_scan(quads: int, what: str) -> None:
    """Raise ValueError, before any scanning, when a scan would exceed SCAN_CEILING."""
    _check_ceiling(quads, SCAN_CEILING, f"{what} would scan {quads} quads")


def pairs_with_sum(n: int, l):
    """Number of pairs {a < b} within [n] with a + b = l.
    An int l gives an int; an int64 array of l gives the int64 array of counts."""
    p = np.maximum((l - 1) // 2 - np.maximum(1, l - n) + 1, 0)
    return p if isinstance(p, np.ndarray) else int(p)


_BLOCK_ROWS = 1 << 10  # the most rows a block of enumerate_quads holds, unless one sum has more


def enumerate_quads(n: int) -> Iterator[np.ndarray]:
    """Yield every canonical Sidon 4-set of [n] exactly once, as int32 blocks of
    rows (x1, x2, x3, x4), unchecked, each of whole consecutive pair sums and at
    most _BLOCK_ROWS rows unless it holds one sum alone.

    Order is part of the contract: pair-sum l ascending, then the tuple
    (x1, x2, x3, x4) lexicographically ascending within each l.

    A sum l has p pairs {l - x, x}, smaller element x from hi down to lo, and
    its quads are the index pairs c < r < p in row-major order: x4 = hi - r,
    x3 = hi - c. The first C(p, 2) of them serve every smaller p, so one int32
    table, for the largest sum's n // 2 pairs, is built, then sliced or gathered.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    r = np.arange(n // 2, dtype=np.int32)
    rows = np.repeat(r, r)
    cols = np.arange(len(rows), dtype=np.int32)
    cols -= np.repeat(r * (r - 1) // 2, r)  # the index where row r starts
    p = pairs_with_sum(n, np.arange(5, 2 * n))
    ends = np.zeros(len(p) + 1, dtype=np.int64)  # ends[i]: the quads of the sums below l = 5 + i
    np.cumsum(p * (p - 1) // 2, out=ends[1:])
    del p
    start = 0
    while start < len(ends) - 1:
        # the sums l = start + 5 .. stop + 4: as many as fit in _BLOCK_ROWS rows, at least one
        first = ends[start]
        stop = max(start + 1, int(np.searchsorted(ends, first + _BLOCK_ROWS, "right")) - 1)
        m = int(ends[stop] - first)
        if stop == start + 1:
            at, l = slice(0, m), start + 5
        else:
            counts = ends[start + 1 : stop + 1] - ends[start:stop]
            at = np.arange(m) - np.repeat(ends[start:stop] - first, counts)
            l = np.repeat(np.arange(start + 5, stop + 5, dtype=np.int32), counts)
        start = stop
        if m == 0:
            continue
        # filled column by column, so each column is contiguous
        x1, x2, x3, x4 = q = np.empty((4, m), dtype=np.int32)
        hi = (l - 1) // 2
        np.subtract(hi, rows[at], out=x4)
        np.subtract(hi, cols[at], out=x3)
        np.subtract(l, x3, out=x2)
        np.subtract(l, x4, out=x1)
        del at, l, hi, x1, x2, x3, x4  # only the block outlives the yield
        yield q.T
        del q  # so a consumer that drops each block holds one at a time


def total_quads_formula(n: int) -> int:
    """Closed-form total: n^3/12 - 3n^2/8 + 5n/12 - (0 if n even else 1/8), exactly."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    num = 2 * n**3 - 9 * n**2 + 10 * n
    if n % 2:
        num -= 3
    assert num % 24 == 0
    return num // 24


# The most pair sums that one command may add up through count_quads_by_sums,
# 2n - 3 of them for each n: any single n up to 5,000,001, or a range up to
# 4..3163. These take 0.14 s and 0.09 s on a 2-vCPU x86 host.
SUMS_CEILING = 10_000_000


def _check_sum_range(ns: range) -> None:
    """Raise ValueError, before any counting, when count_quads_by_sums over every
    n of ns would add up more than SUMS_CEILING pair sums."""
    sums = len(ns) * (ns[0] + ns[-1] - 3)
    what = f"n={ns[0]}" if len(ns) == 1 else f"n={ns[0]}..{ns[-1]}"
    _check_ceiling(sums, SUMS_CEILING, f"{what} would add up {sums} pair sums")


# Pair sums per numpy block of count_quads_by_sums: its int64 temporaries stay
# about 2 MiB at any n.
_SUMS_BLOCK = 1 << 16
# Under the ceiling n <= (SUMS_CEILING + 3) // 2, so a sum has at most n // 2
# pairs, and a block's C(p, 2) terms add up within int64; the blocks add up
# in a Python int, so the total may exceed 2**63 - 1.
assert _SUMS_BLOCK * ((SUMS_CEILING + 3) // 4) ** 2 < 2**63


def count_quads_by_sums(n: int) -> int:
    """Independent total via sum buckets: sum over l of C(p(l), 2)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_sum_range(range(n, n + 1))
    total = 0
    for start in range(3, 2 * n, _SUMS_BLOCK):
        l = np.arange(start, min(start + _SUMS_BLOCK, 2 * n), dtype=np.int64)
        p = np.maximum((l - 1) // 2 - np.maximum(1, l - n) + 1, 0)
        total += int((p * (p - 1) // 2).sum())
    return total


def enumerate_modular_quads(k: int) -> list[ModularSidonQuad]:
    """All canonical balanced pairings of four distinct residues mod k.

    Direct scan over residue buckets, the pairs {a < b} with a + b = r (mod k)
    for each r: two distinct pairs of one bucket share no residue, so each
    unordered two of them is one balanced pairing, the lexicographically
    smaller pair first. Deliberately free of any closed-form shortcut so it
    can serve as the oracle for the count formula. Sorted output.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for a, b in itertools.combinations(range(1, k + 1), 2):
        buckets[(a + b) % k].append((a, b))
    out = [
        ModularSidonQuad(pa, pb, k)
        for bucket in buckets
        for pa, pb in itertools.combinations(bucket, 2)
    ]
    out.sort()
    return out


def modular_count_formula(k: int) -> int:
    """|S(k)| = k^3/8 - k^2/2 + theta*k with theta = 1/2 (k even), 3/8 (k odd).

    Validated for k >= 4; smaller k short-circuits to 0 since four distinct
    residues do not exist there.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k < 4:
        return 0
    if k % 2 == 0:
        num = k**3 - 4 * k**2 + 4 * k
    else:
        num = k**3 - 4 * k**2 + 3 * k
    assert num % 8 == 0
    return num // 8


def f_n_exact(n: int, b, a):
    """Exact number of Sidon 4-sets of [n] containing both a and b (b < a).
    Ints b, a give an int; int64 arrays of b and a give the int64 array of counts.

    Splits on whether {a, b} is a side of the forced pairing:
      same side:      the other side is any different pair with sum a + b;
      opposite sides: partners x and x + (a - b) with x, x + d avoiding a, b.
    The two families are disjoint and each 4-set appears once.
    """
    if not np.all((1 <= b) & (b < a) & (a <= n)):
        raise ValueError(f"need 1 <= b < a <= n, got b={b}, a={a}, n={n}")
    same_side = pairs_with_sum(n, a + b) - 1
    # x runs over [1, n - d], less the three distinct values a, b, 2b - a that would
    # repeat an element: b always lies there, a when 2a - b <= n, 2b - a when >= 1
    opposite = n - (a - b) - 1 - (2 * a - b <= n) - (2 * b - a >= 1)
    return same_side + opposite


def f_n_scan(n: int, b: int, a: int) -> int:
    """Test oracle for f_n_exact: scan every quad for membership of both values."""
    if not 1 <= b < a <= n:
        raise ValueError(f"need 1 <= b < a <= n, got b={b}, a={a}, n={n}")
    hits = ((q == a).any(axis=1) & (q == b).any(axis=1) for q in enumerate_quads(n))
    return sum(int(h.sum()) for h in hits)
