"""Classify and count Sidon 4-sets under a coloring.

Three independent interval-domain counters are kept deliberately separate:

  count_rainbow_naive   classifies every quad (the ground-truth oracle),
                        one pair-sum bucket at a time, by comparing the
                        colors of each two of its pairs on p x p matrices;
  count_rainbow_fast    inclusion-exclusion over ordered color 4-tuples,
                        from a pair-sum and a pair-difference histogram per
                        color class, by one of two exact engines per class
                        size: about |X|^2 / 2 pairs in blocks of sqrt(8n)
                        rows (O(|X|^2) time) for small classes, and for
                        large ones an exact number-theoretic transform mod
                        a prime (O(n log n)): two per class, and one per
                        call for every large class's differences together;
                        O(n) memory, 74 bytes per n for a random 4-coloring
                        at n = 10^5;
  rainbow_via_energy    for k = 4, three 4-fold additive energies with the
                        second side negated.

The cyclic (Z_n) counters follow the same routes with every sum and
difference read mod n and the pairing treated as part of the solution.
"""
from __future__ import annotations

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
    |x| * r / 2 against 4n * |x| / r (sqrt(4n) timed 4-8% slower at n = 2000..5000).
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


# The transform engine works modulo _P = 119 * 2**23 + 1, a prime whose
# multiplicative group 3 generates: it holds a primitive root of unity of every
# power-of-two length up to 2**23. Every slot it computes counts at most n
# pairs, and n <= _MAX_N < _P, so each residue is the count itself; a class's
# sums and differences take 2n - 1 slots, so the length never wraps.
_P = 998_244_353
assert _MAX_N < _P
assert 2 * _MAX_N - 1 <= 2**23
# w + 1/w squares to w^2 + 2 + w^-2 = 2 for w a primitive 8th root, w^2 = -w^-2
_ROOT2 = (pow(3, (_P - 1) // 8, _P) + pow(3, 7 * (_P - 1) // 8, _P)) % _P
# Butterflies one numpy call works on: a chunk's scratch stays in cache.
_CHUNK = 1 << 14
# Stages of half-span below this run on transposed blocks of _SPAN elements,
# where numpy's inner loops run along the blocks and not along the short span.
_SPAN = 64


def _mulmod(a: np.ndarray, w: np.ndarray, out: np.ndarray, b: np.ndarray, t: np.ndarray) -> None:
    """out = a * w mod _P over uint32 residues, by way of the uint64 scratch b
    and the uint32 scratch t: q = b // _P fits 32 bits, and b - q * _P < _P is
    read from the low 32 bits of b and of q * _P."""
    np.multiply(a, w, out=b, dtype=np.uint64)
    np.floor_divide(b, _P, out=t, casting="unsafe")
    t *= _P
    np.subtract(b, t, out=out, dtype=np.uint32, casting="unsafe")


# Both butterflies reduce a sum or difference of residues with one minimum: the
# uint32 arithmetic wraps, so of x and x - _P (or x + _P) the smaller is x mod _P.
# Neither writes into x from a view of x other than the one it reads, so numpy
# never copies an operand to guard an overlap.


def _forward_butterfly(u, v, w, b, t, s) -> None:
    """(u, v) <- (u + v, (u - v) w): one decimation-in-frequency step."""
    np.subtract(u, v, out=s)
    s += _P
    np.add(u, v, out=t)
    np.subtract(t, _P, out=u)
    np.minimum(u, t, out=u)
    _mulmod(s, w, v, b, t)


def _backward_butterfly(u, v, w, b, t, s) -> None:
    """(u, v) <- (u + v w, u - v w): one decimation-in-time step."""
    _mulmod(v, w, t, b, t)
    np.subtract(u, t, out=s)
    np.add(s, _P, out=v)
    np.minimum(s, v, out=v)
    np.add(u, t, out=s)
    np.subtract(s, _P, out=u)
    np.minimum(u, s, out=u)


def _roots(length: int) -> np.ndarray:
    """w^k mod _P for k < length / 2, w a primitive length-th root of unity: the
    one table every stage of a transform of that length reads, as uint32."""
    roots = np.ones(length // 2, dtype=np.uint32)
    b, t = np.empty(len(roots) // 2, dtype=np.uint64), np.empty(len(roots) // 2, dtype=np.uint32)
    w, m = pow(3, (_P - 1) // length, _P), 1
    while m < len(roots):
        _mulmod(roots[:m], pow(w, m, _P), roots[m : 2 * m], b[:m], t[:m])
        m *= 2
    return roots


def _transform(x: np.ndarray, roots: np.ndarray, forward: bool) -> None:
    """The transform y(j) = sum_t x(t) w^(jt) mod _P, in place, for x of length L
    = 2 * len(roots): forward reads x in natural order and leaves y in
    bit-reversed order, and backward the other way round. Applying both gives
    L * x(-j), so a backward transform also inverts, read backwards.

    Stage h pairs the elements h apart in each block of 2h, a chunk of about
    _CHUNK pairs at a time; the stages below _SPAN run block by block on a
    transposed copy.
    """
    length = len(x)
    spans = [length >> i for i in range(1, length.bit_length())]  # L/2 .. 1
    step = _forward_butterfly if forward else _backward_butterfly
    b = np.empty(_CHUNK, dtype=np.uint64)
    t, s = np.empty(_CHUNK, dtype=np.uint32), np.empty(_CHUNK, dtype=np.uint32)

    def butterfly(u, v, w):
        shape, size = u.shape, u.size
        step(u, v, w, b[:size].reshape(shape), t[:size].reshape(shape), s[:size].reshape(shape))

    def stage(h):
        pairs, w = x.reshape(-1, 2, h), roots[:: len(roots) // h]
        rows, cols = max(1, _CHUNK // h), min(h, _CHUNK)
        for r in range(0, len(pairs), rows):
            for k in range(0, h, cols):
                butterfly(pairs[r : r + rows, 0, k : k + cols], pairs[r : r + rows, 1, k : k + cols], w[k : k + cols])

    def short_stages(hs):
        blocks, rows = x.reshape(-1, _SPAN), 2 * _CHUNK // _SPAN
        for r in range(0, len(blocks), rows):
            block = blocks[r : r + rows].T.copy()
            for h in hs:
                pairs = block.reshape(_SPAN // (2 * h), 2, h, -1)
                butterfly(pairs[:, 0], pairs[:, 1], roots[:: len(roots) // h][:h, None])
            blocks[r : r + rows] = block.T

    short = [h for h in spans if h < _SPAN < length]
    long = spans[: len(spans) - len(short)]
    if forward:
        for h in long:
            stage(h)
        if short:
            short_stages(short)
    else:
        if short:
            short_stages(short[::-1])
        for h in reversed(long):
            stage(h)


def _read_cyclic(out: np.ndarray, y: np.ndarray) -> None:
    """out[i] = y[i mod len(y)]: a transform too short for its window reads
    some slots twice, which the callers' sum checks catch."""
    for k in range(0, len(out), len(y)):
        out[k : k + len(y)] = y[: len(out) - k]


def _transform_sums(x: np.ndarray, n: int, roots: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Q(l) = #{(a, b) in x^2 : a + b = l} at index l = 0..2n, int64, for the
    sorted class x of [n]: one forward transform of its indicator a (a(j - 1)
    = 1 for j in x), squared pointwise and transformed back. A(j) A(-j), the
    transform of the class's differences, is added to acc on the way.

    In bit-reversed order position 0 holds A(0), and each block [2^s, 2^(s+1))
    holds A(j) for the j of one 2-adic valuation, where A(-j) sits at the
    mirror position. The indicator holds c with c^2 = 1/L, so that both
    products come back unscaled.

    The result is read cyclically from the backward transform, so a transform
    shorter than the 2n - 1 slots reads some of them twice; Q must sum to
    |x|^2, or OverflowError is raised.
    """
    length = 2 * len(roots)
    a = np.zeros(length, dtype=np.uint32)
    a[x - 1] = pow(_ROOT2, 1 - length.bit_length(), _P)
    _transform(a, roots, forward=True)
    b = np.empty(min(_CHUNK, length), dtype=np.uint64)
    t, s = np.empty(len(b), dtype=np.uint32), np.empty(len(b), dtype=np.uint32)
    # a block [lo, 2lo) against its mirror; position 0 is its own mirror
    for lo, hi in [(0, 1)] + [(1 << i, 2 << i) for i in range(length.bit_length() - 1)]:
        mirror = a[lo:hi][::-1]
        for k in range(lo, hi, len(b)):
            e = min(hi, k + len(b))
            u, m = acc[k:e], s[: e - k]
            _mulmod(a[k:e], mirror[k - lo : e - lo], m, b[: e - k], t[: e - k])
            u += m
            np.subtract(u, _P, out=m)
            np.minimum(u, m, out=u)
    for k in range(0, length, len(b)):
        sq = a[k : k + len(b)]
        _mulmod(sq, sq, sq, b[: len(sq)], t[: len(sq)])
    del b, t, s
    _transform(a, roots, forward=False)
    q = np.zeros(2 * n + 1, dtype=np.int64)
    q[2] = a[0]
    _read_cyclic(q[3:], a[::-1])
    del a
    if int(q.sum()) != len(x) ** 2:
        raise OverflowError(f"a transform of length {length} wrapped the sums of a class of {len(x)}")
    return q


def _transform_differences(n: int, roots: np.ndarray, acc: np.ndarray, pairs: int) -> np.ndarray:
    """D(d) = #{(a, b) : a - b = d} at index d + n, int64, summed over the
    classes whose A(j) A(-j) acc holds, from one backward transform of acc.
    D is even in d; read cyclically like the sums, it must total `pairs`,
    the sum of the squared class sizes, or OverflowError is raised.
    """
    _transform(acc, roots, forward=False)
    d = np.zeros(2 * n + 1, dtype=np.int64)
    _read_cyclic(d[n : 2 * n], acc)
    d[:n] = d[2 * n : n : -1]
    if int(d.sum()) != pairs:
        raise OverflowError(f"a transform of length {len(acc)} wrapped the differences of classes of {pairs} pairs")
    return d


# A class X takes the transform engine when |X|^2 > _CROSSOVER * (L + 2**13),
# for L the transform length: the pair histograms cost about |X|^2, and the
# transform about L (log L grows slowly) plus its few hundred numpy calls,
# which cost as much as some 2**13 slots. Timed per class on a 2-vCPU x86
# host (numpy 2.4), |X|^2 / L broke even at 21-29 for L >= 2**15, 31-57 at
# L = 2**13..2**14, about 75 at 2**12 and 130 at 2**11.
_CROSSOVER = 25


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
    length = 2 << (n - 1).bit_length()  # twice the smallest power of two >= n: at least 2n - 1
    # D of the pair-engine classes in d, and of the transform classes in acc,
    # each made only once a class needs it
    d = acc = None
    r_sq = q_sq = pairs = 0
    for x in _classes(c).values():
        if len(x) ** 2 > _CROSSOVER * (length + 2**13):
            if acc is None:
                roots, acc = _roots(length), np.zeros(length, dtype=np.uint32)
            q = _transform_sums(x, n, roots, acc)
            pairs += len(x) ** 2
        else:
            q, diffs = _pair_histograms(x, n)
            d = diffs if d is None else np.add(d, diffs, out=d)
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
    if acc is not None:
        diffs = _transform_differences(n, roots, acc, pairs)
        del acc, roots
        d = diffs if d is None else np.add(d, diffs, out=d)
        del diffs
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
