"""Classify and count Sidon 4-sets under a coloring.

Three independent interval-domain counters are kept deliberately separate:

  count_rainbow_naive   classifies every quad (the ground-truth oracle),
                        one pair-sum bucket at a time, by comparing the
                        colors of each two of its pairs on p x p matrices;
  count_rainbow_fast    inclusion-exclusion over ordered color 4-tuples,
                        from a pair-sum and a pair-difference histogram per
                        color class, by one of two exact engines per class
                        size: about |X|^2 / 2 pairs in blocks of sqrt(8n)
                        rows (O(|X|^2) time) for small classes, two decimal
                        squarings (O(n log n)) for large ones; O(n) memory,
                        79 bytes per n for a random 4-coloring at n = 10^5;
  rainbow_via_energy    for k = 4, three 4-fold additive energies with the
                        second side negated.

The cyclic (Z_n) counters follow the same routes with every sum and
difference read mod n and the pairing treated as part of the solution.
"""
from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from math import comb, isqrt

import numpy as np

from .core import ClassBreakdown, Coloring, Domain
from .enumeration import _check_scan, f_n_exact, total_quads_formula
from .repfn import IntSet, additive_energy, negate_set


# Entries of one block of outer comparisons in the naive scans: buckets are
# packed into blocks of at most this many (a bucket larger than a block is
# scanned alone), so a block's uint8 matrices stay a few KiB while small n
# still takes few numpy calls.
_SCAN_BLOCK = 1 << 12


def _block_tallies(u: np.ndarray, v: np.ndarray, bucket: np.ndarray) -> list[int]:
    """tallies[d]: ordered (i, j), i != j, of pairs with colors (u, v) in one
    bucket whose four colors take d distinct values; bucket[i] names pair i's
    bucket, and pairs of different buckets are not counted.

    Pair j adds [u_j not in {u_i, v_i}] + [v_j not in {u_i, v_i, u_j}]
    colors to pair i's 1 + [u_i != v_i], on p x p outer comparisons. The
    whole matrix is tallied, then the diagonal, each pair against itself
    showing its own 1 + [u_i != v_i] colors, is taken off.
    """
    two = u != v
    d = (u != u[:, None]).view(np.uint8)
    d &= u != v[:, None]
    new_v = v != u[:, None]
    new_v &= v != v[:, None]
    new_v &= two
    d += new_v
    d += 1 + two.view(np.uint8)[:, None]
    d *= bucket == bucket[:, None]
    tallies = [0] + [np.count_nonzero(d == t) for t in range(1, 5)]
    doubles = np.count_nonzero(two)
    tallies[1] -= len(two) - doubles
    tallies[2] -= doubles
    return tallies


def _naive_tallies(c: Coloring, cyclic: bool) -> list[int]:
    """tallies[d]: unordered pairs of distinct pairs {a < b} in one bucket
    whose four colors take d distinct values. A bucket is a pair sum l of
    [n], or a residue r mod n (the sums r and r + n) in the cyclic scan; two
    distinct pairs of a bucket are disjoint, so each pair of them is one quad.

    Buckets are classified a block of them at a time (_block_tallies), and
    the symmetric tallies of ordered pairs of pairs are halved.
    """
    n = c.n
    # only equality of colors matters: ranks in the narrowest dtype keep the
    # comparison buffers small
    index: dict[int, int] = {}
    ranks = [index.setdefault(x, len(index)) for x in c.colors]
    col = np.array([0] + ranks, dtype=np.min_scalar_type(len(index)))
    l = np.arange(2 * n)
    lo = np.maximum(1, l - n)
    p = np.maximum(0, (l - 1) // 2 - lo + 1)  # pairs with sum l
    sizes = p[:n] + p[n:] if cyclic else p  # pairs per bucket
    bounds, width = [0], 0
    for key, size in enumerate(sizes.tolist()):
        if width and (width + size) ** 2 > _SCAN_BLOCK:
            bounds.append(key)
            width = 0
        width += size
    bounds.append(len(sizes))
    tallies = [0] * 5
    for k0, k1 in zip(bounds, bounds[1:]):
        sums = np.concatenate((l[k0:k1], l[k0 + n : k1 + n])) if cyclic else l[k0:k1]
        cnt = p[sums]
        s = np.repeat(sums, cnt)  # sums ascend: searchsorted finds where each starts
        a = lo[s] + np.arange(len(s)) - np.searchsorted(s, s)
        u, v = col[a], col[s - a]
        bucket = ((s % n if cyclic else s) - k0).astype(np.min_scalar_type(k1 - k0))
        tallies = [t + m for t, m in zip(tallies, _block_tallies(u, v, bucket))]
    return [t // 2 for t in tallies]


def count_rainbow_naive(c: Coloring) -> ClassBreakdown:
    """Full breakdown by scanning every Sidon 4-set of [n]. The oracle."""
    if c.domain is not Domain.INTERVAL:
        raise ValueError("count_rainbow_naive expects an interval coloring")
    _check_scan(total_quads_formula(c.n), f"a naive scan of n={c.n}")
    _, mono, two, three, rainbow = _naive_tallies(c, cyclic=False)
    return ClassBreakdown(rainbow, mono, two, three)


def _classes(c: Coloring) -> dict[int, np.ndarray]:
    """Each occurring color's class, a sorted int64 array; nothing is sized by k."""
    colors = np.array(c.colors, dtype=object if c.k >> 63 else np.int64)
    order = np.argsort(colors, kind="stable")
    colors = colors[order]
    cuts = np.flatnonzero(colors[1:] != colors[:-1]) + 1
    return dict(zip(colors[np.append(0, cuts)].tolist(), np.split(order + 1, cuts)))


# A block of rows holds at most this many int64 pair entries (8 MiB).
_BLOCK = 1 << 20
# Each dot product below, from either engine's histograms, sums v**2 over
# v <= n with sum(v) <= n**2, so it is at most n**3; this is the largest n
# with n**3 <= 2**63 - 1.
_MAX_N = 2_097_151


def _check_headroom(n: int) -> None:
    if n > _MAX_N:
        raise ValueError(f"n={n} is too large for int64 histogram sums: need n <= {_MAX_N}")


def _pair_histograms(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts of a + b (at index a + b) and of a - b (at a - b + n) over the
    ordered pairs of the sorted class x, forming only the pairs a <= b.

    A block of r rows forms r^2 pairs with itself and r * (rows after it)
    with the rest, about |x|^2 / 2 + |x| * r / 2 in all, and pays four
    O(n) bincounts, each costing about n pair entries: r = sqrt(8n) balances
    |x| * r / 2 against 4n * |x| / r (timed flat from sqrt(4n) to sqrt(8n)).
    """
    width = 2 * n + 1
    sums, diffs = np.zeros(width, dtype=np.int64), np.zeros(width, dtype=np.int64)
    rows = max(1, min(_BLOCK // max(len(x), 1), isqrt(8 * n)))
    for a in range(0, len(x), rows):
        head, tail = x[a : a + rows], x[a + rows :]
        sums += np.bincount(np.add.outer(head, head).ravel(), minlength=width)
        sums += 2 * np.bincount(np.add.outer(head, tail).ravel(), minlength=width)
        diffs += np.bincount(np.subtract.outer(head + n, head).ravel(), minlength=width)
        below = np.bincount(np.subtract.outer(head + n, tail).ravel(), minlength=width)
        diffs += below
        diffs += below[::-1]
    return sums, diffs


# Integer products of any size, exact: an inexact or rounded result raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])


def _square_slots(digits: np.ndarray, slots: int) -> np.ndarray:
    """The square of the decimal integer whose slots, most significant first,
    are the rows of the ASCII digit matrix digits, read back as `slots`
    int64 slot values.

    libmpdec squares by an exact number-theoretic transform, one forward
    transform fewer than a product of two operands. The digits are read in
    place: Horner over the W digit columns, then one subtraction of the
    ASCII offset 48 * (10^W - 1) / 9; a top slot with leading zeros that
    str() left out is read by itself.
    """
    width = digits.shape[1]
    a = Decimal(str(digits, "ascii"))
    a = _EXACT.multiply(a, a)  # the operand goes once its square is made
    # a carry past the top slot is cut off here, so the callers' sum checks
    # see it too; a square that fits is not copied
    text = str(a).encode()[-slots * width :]
    del a
    full, top = divmod(len(text), width)
    v = np.zeros(slots, dtype=np.int64)
    body = v[:full]
    for col in np.frombuffer(text, dtype=np.uint8, offset=top).reshape(full, width)[::-1].T:
        body *= 10
        body += col
    body -= ord("0") * (10**width - 1) // 9
    if top:
        v[full] = int(text[:top])
    return v


def _kronecker_histograms(x: np.ndarray, n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """_pair_histograms by Kronecker substitution: the class indicator as a
    decimal integer a = sum_{j in x} 10^(width * j), and its reverse r with j
    at n - j. Slot l of a^2 is Q(l), and slot l of (a + r)^2 is
    Q(l) + Q(2n - l) + 2 D(l - n), since r^2 is a^2 reversed and slot d + n
    of a * r is D(d); so two squarings give both histograms, while no slot
    reaches 10^width.

    A slot that overflowed would carry into the next one and lower the total,
    so Q must sum to |x|^2 and (a + r)^2 to 4|x|^2, or OverflowError is raised.
    Q, no slot of it above |x|, waits out the second squaring in the narrowest dtype.
    """
    slots = 2 * n + 1
    digits = np.full((n + 1, width), ord("0"), dtype=np.uint8)
    digits[n - x, -1] = ord("1")  # a, slot n first
    q = _square_slots(digits, slots)
    m = len(x)
    total, q = int(q.sum()), q.astype(np.min_scalar_type(m))
    digits[x, -1] += 1  # a + r, the same in either slot order
    d = _square_slots(digits, slots)
    del digits
    if total != m**2 or int(d.sum()) != 4 * m**2:
        raise OverflowError(f"histogram slots of {width} digits overflowed for a class of {m}")
    d -= q
    d -= q[::-1]
    d >>= 1
    return q.astype(np.int64), d


# A class X takes the transform engine when |X|^2 > _CROSSOVER * n * W, for W
# the digits of |X|: the pair histograms cost about |X|^2 and the transform
# about n * W. Timed per class on a 2-vCPU x86 host (numpy 2.4, libmpdec
# 2.5.1), the two engines broke even at |X|^2 / (n * W) of about 100, 60, 30,
# 60, 50, 45 and 50 for n = 1000, 3000, 8000, 10^4, 2 * 10^4, 5 * 10^4 and
# 10^5; the transform's cost steps with libmpdec's transform lengths.
_CROSSOVER = 48


def _fold(v: np.ndarray, n: int) -> np.ndarray:
    """A histogram indexed 0..2n reduced to residues mod n."""
    return np.pad(v, (0, n - 1)).reshape(3, n).sum(axis=0)


def _rainbow_from_histograms(c: Coloring, cyclic: bool) -> int:
    """Rainbow count from 8 * rainbow = sum_l (S^2 - 4 sum_i R_i^2 + 2 sum_{i != j}
    P_ij^2), with P_ij(l) = #{(x, y) in X_i x X_j : x + y = l} and Q_i = P_ii.

    S = F - sum_i Q_i and R_i = W_i - Q_i, for F(l) all ordered pairs summing
    to l and W_i(l) the x in X_i with l - x in the domain. Same-colored x + y
    = x' + y' means x - x' = y' - y, so sum_{i != j} P_ij^2 = sum_d D(d)^2 -
    sum_i Q_i^2 for same-color differences D. Z_n: mod n, F = n, W_i = |X_i|.
    """
    n = c.n
    if c.k < 4:
        return 0
    _check_headroom(n)
    s = np.full(n, n) if cyclic else (n - np.abs(np.arange(-n - 1, n))).clip(0)
    d = np.zeros(2 * n + 1, dtype=np.int64)
    r_sq = q_sq = 0
    for x in _classes(c).values():
        if len(x) ** 2 > _CROSSOVER * n * len(str(len(x))):
            # every slot of (a + r)^2 is at most 4|x|: slots of its digit count hold it
            q, diffs = _kronecker_histograms(x, n, len(str(4 * len(x))))
        else:
            q, diffs = _pair_histograms(x, n)
        d += diffs
        del diffs
        if cyclic:
            q, w = _fold(q, n), len(x)
        else:
            # W_i(l) = below[l] - below[l - n] for below[l] = #{x < l}, 0 at l = 0
            w = np.bincount(x + 1, minlength=2 * n + 1)
            np.cumsum(w, out=w)
            w[n + 1 :] -= w[1 : n + 1]
        s -= q
        q_sq += int(q @ q)
        np.subtract(w, q, out=q)  # q, fresh from its engine, turns into R_i = W_i - Q_i
        r_sq += int(q @ q)
        del q, w  # neither runs beside the next class's engine
    d = _fold(d, n) if cyclic else d
    return (int(s @ s) - 4 * r_sq + 2 * (int(d @ d) - q_sq)) // 8


def count_rainbow_fast(c: Coloring) -> int:
    """Rainbow count from per-color pair-sum and pair-difference histograms."""
    if c.domain is not Domain.INTERVAL:
        raise ValueError("count_rainbow_fast expects an interval coloring")
    return _rainbow_from_histograms(c, cyclic=False)


def rainbow_via_energy(c: Coloring) -> int:
    """Rainbow count for a 4-coloring as a sum of three additive energies.

    Each rainbow quad has its color set {1,2,3,4} split across the two sides
    in one of three ways; the energy E_4(X_a, X_b, -X_c, -X_d) counts exactly
    the quads split as {a,b} vs {c,d}. Classes being disjoint keeps the four
    tuple entries distinct, so no degenerate tuples are counted.
    """
    if c.domain is not Domain.INTERVAL:
        raise ValueError("rainbow_via_energy expects an interval coloring")
    if c.k != 4:
        raise ValueError(f"energy route needs exactly 4 colors, got k={c.k}")
    classes = _classes(c)
    X = [IntSet(classes[i].tolist() if i in classes else ()) for i in range(1, 5)]
    negX = [negate_set(x) for x in X]
    total = 0
    for a, b in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        total += additive_energy([X[a[0]], X[a[1]], negX[b[0]], negX[b[1]]])
    return total


def _cyclic_scan_size(n: int) -> int:
    """Pairs of same-sum pairs that count_rainbow_cyclic_naive scans: residue r
    has (n - #{a : 2a = r mod n}) / 2 pairs {a, b} with a + b = r mod n. For
    odd n, 2a = r has one root a for every r; for even n, two for each of the
    n/2 even r and none for the n/2 odd ones."""
    h = n // 2
    if n % 2:
        return n * comb(h, 2)
    return h * (comb(h - 1, 2) + comb(h, 2))


def count_rainbow_cyclic_naive(c: Coloring) -> int:
    """Rainbow solutions to x+y = z+t in Z_n by scanning pairs of same-sum pairs.

    Distinct pairs with equal sum mod n are disjoint, and the same 4-set may
    balance under a second pairing, which counts as a separate solution.
    """
    if c.domain is not Domain.CYCLIC:
        raise ValueError("count_rainbow_cyclic_naive expects a cyclic coloring")
    _check_scan(_cyclic_scan_size(c.n), f"a cyclic naive scan of n={c.n}")
    return _naive_tallies(c, cyclic=True)[4]


def count_rainbow_cyclic_fast(c: Coloring) -> int:
    """Cyclic rainbow count from the same histograms, read mod n."""
    if c.domain is not Domain.CYCLIC:
        raise ValueError("count_rainbow_cyclic_fast expects a cyclic coloring")
    return _rainbow_from_histograms(c, cyclic=True)


def non_rainbow_lower_bound(c: Coloring) -> Fraction:
    """Exact rational floor on the number of non-rainbow quads.

    A quad that is not rainbow repeats a color, so it contains a same-colored
    pair; summing, over all same-colored pairs, the number of quads through
    the pair counts each non-rainbow quad at most six times.
    """
    if c.domain is not Domain.INTERVAL:
        raise ValueError("non_rainbow_lower_bound expects an interval coloring")
    total = 0
    for cls in (x.tolist() for x in _classes(c).values()):
        for bi in range(len(cls)):
            for ai in range(bi + 1, len(cls)):
                total += f_n_exact(c.n, cls[bi], cls[ai])
    return Fraction(total, 6)
