"""Classify and count Sidon 4-sets under a coloring.

Three interval-domain counters are kept separate, each by its own identity:

  count_rainbow_naive   classifies every quad once (the ground-truth oracle)
                        as two pairs (x, x + a), (y, y + a) of one common
                        difference by its number of distinct colors: the
                        popcount of the OR of the pairs' one-byte color sets
                        up to 8 colors, outer comparisons of ranks past them;
                        many rows to a numpy block, both pairs views of one
                        array of their rows' pairs;
  count_rainbow_fast    inclusion-exclusion over ordered color 4-tuples,
                        from a pair-sum and a pair-difference histogram per
                        color class, by one of two exact engines per class
                        size: for small classes each unordered pair once,
                        as rows of the class's circulant in blocks of
                        _PAIRS entries (O(|X|^2) time), and for large ones
                        an exact number-theoretic transform mod a prime
                        (O(n log n)): for k large classes, k
                        forward, ceil(k/2) backward carrying two classes'
                        sums as the digits of Q_i + (|X_i| + 1) Q_j, and one
                        for all their differences; no W_i array; O(n)
                        memory, 65 bytes per n for a random 4-coloring at
                        n = 10^5; both engines cost O(n) a class, so the
                        classes that occur times n is bounded;
  rainbow_via_energy    for k = 4, three 4-fold additive energies with the
                        second side negated, as dot products of the sums of
                        two color classes from the same transform (four
                        forward, six backward; 96 bytes per n at n = 10^5).

The cyclic (Z_n) counters follow the same routes with every sum and
difference read mod n and the pairing treated as part of the solution; the
cyclic scan classifies every two pairs of one sum residue once, the same way,
the rows of many residues to a block.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .core import ClassBreakdown, Coloring, Domain, _check_ceiling
from .enumeration import SCAN_CEILING, _check_scan, f_n_exact, modular_count_formula, total_quads_formula


# Entries of one block of the floor's int64 pair arrays (non_rainbow_lower_bound).
_SCAN_BLOCK = 1 << 12
# Bytes of one block of the naive scans: e, a byte an entry, and past 8 colors a
# comparison's mask beside it, so half as many entries there, beside a slab's one
# array of pairs of at most 0.6 blocks. A scan of n takes at most 6 n^2 entries a
# block, which costs little time at n = 60 and keeps verify's floor-suite scans
# (n <= 60, up to 6 colors) under 40 KiB; at n = 240 the scans peak near 81 KiB.
_SCAN_BYTES = 3 << 14


def _pair_tallies(slabs, codes: tuple[int, int, int], block: int) -> list[int]:
    """[e = codes[0], e = codes[1], e = codes[2], e < 8] over the pairs i <= j
    < width of every row r of each slab (left, ahead): pair i is left[.][r, i]
    and pair j = i + t is ahead[.][r, t, i], a Toeplitz view of the same array.

    With one color-set byte a pair, e is the popcount of the two bytes' OR,
    the colors of the four elements: 8 where a byte holds 0xFF past its row's
    end. With two ranks and [u == v] a pair (u, v, same), e = same_i + same_j
    plus four outer comparisons, the equal colors among the six couples: 8
    or more (at most 22) where a same holds 8.

    A block takes the offsets t = d..d + rows - 1 of every row against the
    i < width - d, in at most `block` entries unless one offset has more. It
    is tallied in place, each value of e brought to 0 in turn, so no other
    array of its size is made.
    """
    ladder = sorted(codes) + [8]
    steps = [np.uint8(high - low) for low, high in zip([0] + ladder, ladder)]
    zeros, entries = [0] * 4, 0
    for left, ahead in slabs:
        height, width = left[0].shape
        d = 0
        while d < width:
            span = width - d
            rows = min(span, max(1, block // (height * span)))
            i, j = np.s_[:, None, :span], np.s_[:, d : d + rows, :span]
            if len(left) == 1:
                e = ahead[0][j].copy()  # a ufunc of two strided operands would take two 8 KiB buffers
                e |= left[0][i]
                np.bitwise_count(e, out=e)
            else:
                (u, v, same), (x, y, other) = left, ahead
                e = same[i] + other[j]
                for p in (u[i], v[i]):
                    for q in (x[j], y[j]):
                        e += (p == q).view(np.uint8)
            # e - code is 0 where e = code; e - 8 has its top three bits 0 where 8 <= e < 40, and wraps past 247 where e < 8
            for k, step in enumerate(steps):
                if step:
                    e -= step
                if k == 3:
                    e &= np.uint8(0xE0)
                zeros[k] += e.size - int(np.count_nonzero(e))
            entries += e.size
            del e  # before the next block's
            d += rows
    return [zeros[ladder.index(code)] for code in codes] + [entries - zeros[3]]


def _naive_tallies(c: Coloring, cyclic: bool) -> list[int]:
    """tallies[d]: the Sidon 4-sets of [n], or balanced pairings of Z_n, whose
    four colors take d distinct values, each classified once (_pair_tallies).

    [n], from 0: row a holds the pairs (k, k + a), k < n - a, pair i against
    pair a + 1 + j, j >= i: a 4-set p < q < r < s, q - p = s - r, has one such
    a. Z_n, from 0: for each residue 2s + t (t = 0, 1), the pairs {s + 1 + k,
    s - 1 + t - k}, k < (n - 1 + t) // 2, one row per residue, each pair
    against every later one. A slab takes as many rows as 1/8 of a block
    holds, in one array of each row's pairs marked past its end (the color
    bytes x | y | past, or same = [x == y] | past beside two rank views):
    left is a row's first width pairs, ahead row r's from shift + step r on.
    """
    n = c.n
    index: dict[int, int] = {}  # only equality matters: ranks, in the narrowest dtype
    ranks = np.array([index.setdefault(x, len(index)) for x in c.colors], dtype=np.min_scalar_type(len(index)))
    bits = len(index) <= 8  # then a pair's colors are one byte, a bit a color
    col = np.left_shift(1, ranks, dtype=np.uint8) if bits else ranks
    end = 0xFF if bits else 8  # what a pair holds past its row's end
    block = min(_SCAN_BYTES if bits else _SCAN_BYTES // 2, 6 * n * n)

    def view(a, start, steps, shape):
        # a[start + steps . index] at each index of shape, a view of the contiguous a
        return np.ndarray(shape, a.dtype, a, start * a.itemsize, [k * a.itemsize for k in steps])

    def slab(x, y, past, shift, step, rows, width):
        # x, y and past are (array, start, row step): pair k of row r is (x[start + step r + k], y[...]),
        # past its row's end where past[...] is; ahead[.][r, t, i] is pair shift + step r + t + i
        length = shift + step * (rows - 1) + 2 * width - 1
        fx, fy, fp = (view(a, s, (k, 1), (rows, length)) for a, s, k in (x, y, past))
        side = fx | fy if bits else (fx == fy).view(np.uint8)
        side |= fp
        operands = ([] if bits else [x, y]) + [(side, 0, length)]
        left = tuple(view(a, s, (k, 1), (rows, width)) for a, s, k in operands)
        return left, tuple(view(a, s + shift, (k + step, 1, 1), (rows, width, width)) for a, s, k in operands)

    if cyclic:
        both = np.concatenate((col, col))  # Z_n laid end to end
        back = both[::-1].copy()  # the second elements, j ascending

        def slabs():
            for t in (0, 1):
                p, m = (n - 1 + t) // 2, (n + 1 - t) // 2  # pairs per residue, residues
                width = p - 1  # pair i against pair i + 1 + j
                if width < 1:
                    continue
                past = np.repeat(np.uint8([0, end]), [p, width - 1])
                h = block // (8 * width) or 1
                # residue s: pair k is (both[1 + s + k], back[n - t - s + k])
                for k in range(0, m, h):
                    yield slab((both, 1 + k, 1), (back, n - t - k, -1), (past, 0, 0), 1, 0, min(h, m - k), width)
    else:
        padded = np.concatenate((col, np.zeros(2 * n, dtype=col.dtype)))
        past = np.repeat(np.uint8([0, end, end]), n)  # from n on

        def slabs():
            a = 1
            while a < n // 2:
                width = n - 2 * a - 1
                h = min(block // (8 * width) or 1, n // 2 - a)
                yield slab((padded, 0, 0), (padded, a, 1), (past, a, 1), a + 1, 1, h, width)
                a += h

    rainbow, three, mono, valid = _pair_tallies(slabs(), (4, 3, 1) if bits else (0, 1, 6), block)
    return [0, mono, valid - rainbow - three - mono, three, rainbow]


def count_rainbow_naive(c: Coloring) -> ClassBreakdown:
    """Full breakdown by scanning every Sidon 4-set of [n]. The oracle."""
    if c.domain is not Domain.INTERVAL:
        raise ValueError("count_rainbow_naive expects an interval coloring")
    _check_scan(total_quads_formula(c.n), f"a naive scan of n={c.n}")
    _, mono, two, three, rainbow = _naive_tallies(c, cyclic=False)
    return ClassBreakdown(rainbow, mono, two, three)


def _classes(c: Coloring) -> dict[int, np.ndarray]:
    """Each occurring color's class, a sorted int32 array; nothing is sized by k."""
    colors = np.array(c.colors, dtype=object if c.k >> 63 else np.int64)
    order = np.argsort(colors, kind="stable")
    colors = colors[order]
    cuts = [0, *(np.flatnonzero(colors[1:] != colors[:-1]) + 1).tolist(), len(order)]
    members = np.add(order, 1, dtype=np.int32)
    return {key: members[a:b] for key, a, b in zip(colors[cuts[:-1]].tolist(), cuts, cuts[1:])}


# Pair entries of one block of circulant rows, unless one row has more: 512 KiB
# of int64 sums or differences. Each block pays two O(n) bincounts; over the
# count benchmark's pair-engine classes 2**15 took 4% longer, 2**17 no less.
_PAIRS = 1 << 16
# Each dot product below, from either engine's histograms, sums v**2 over
# v <= n with sum(v) <= n**2, so it is at most n**3; this is the largest n
# with n**3 <= 2**63 - 1.
_MAX_N = 2_097_151


def _check_headroom(n: int) -> None:
    if n > _MAX_N:
        raise ValueError(f"n={n} is too large for int64 histogram sums: need n <= {_MAX_N}")


# The most (color classes that occur) * n one fast count may take: each class
# costs O(n) however small, and a large one a transform of length 2n to 4n. On
# a 2-vCPU x86 host (numpy 2.4) the counts it admits took at most 0.2 s at
# n = 2 * 10^4 (k <= 420), 1.6 s at n = 10^5 (k <= 84, slowest at k = 42, near
# the crossover) and 3.8 s at n = 10^6 (k = 8); four classes pass up to _MAX_N
# (4.2 s).
CLASS_N_CEILING = 8_400_000
# The least a sweep charges one count against that ceiling, for its fixed cost: a row
# at n = 4 took 0.10-0.12 ms there (its count 0.04-0.07 ms), under 400 units of 0.5 us.
MIN_CLASS_N = 400
# The least it charges each of the count's min(k, n) color classes: counts at
# k = 42 took about 0.14 ms at n = 8 and 0.25 ms at n = 16, 35 and 31 units a class.
MIN_PER_CLASS = 100


def _pair_histograms(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts of a + b (at index a + b) and of a - b (at a - b + n) over the
    ordered pairs of the sorted class x of m members, forming each unordered
    pair a != b once.

    Row t of x's circulant pairs x[i] with x[(i + t) mod m]: rows t = 1 ..
    (m - 1) // 2, and when m is even the half row m / 2 over i < m / 2, hold
    every pair once, m (m - 1) / 2 entries in row order. A block is a view of
    whole rows of x laid twice end to end, at most _PAIRS entries unless one
    row has more, and the last one stops at the last pair. The sums are twice
    the blocks' sum counts plus those of 2x, and D(d) = D(-d) is the blocks'
    count of |a - b| = d, with D(0) = m.
    """
    m = len(x)
    x = x.astype(np.int64)  # bincount would widen each block of int32 pairs
    twice = np.concatenate((x, x))
    pairs, block = m * (m - 1) // 2, m * max(1, _PAIRS // m) if m else 1  # whole rows a block
    sums, gaps = np.zeros(2 * n + 1, dtype=np.int64), np.zeros(n + 1, dtype=np.int64)
    for done in range(0, pairs, block):
        t, left = 1 + done // m, pairs - done
        # rows t, t + 1, ... of the circulant, a view of twice: entry (s, i) is twice[t + s + i]
        ahead = np.ndarray((-(-min(block, left) // m), m), x.dtype, twice, t * x.itemsize, (x.itemsize,) * 2)
        e = ahead + x
        sums += np.bincount(e.ravel()[:left], minlength=2 * n + 1)
        np.subtract(ahead, x, out=e)
        np.abs(e, out=e)
        gaps += np.bincount(e.ravel()[:left], minlength=n + 1)
        del e  # before the next block's
    sums *= 2
    sums += np.bincount(x + x, minlength=2 * n + 1)
    diffs = np.concatenate((gaps[:0:-1], gaps))
    diffs[n] = m
    return sums, diffs


# The transform engine works modulo _P = 119 * 2**23 + 1, a prime whose
# multiplicative group 3 generates: it holds a primitive root of unity of every
# power-of-two length up to 2**23. Every slot it computes counts at most n
# pairs, and n <= _MAX_N < _P, so each residue is the count itself (two classes
# share a backward transform only where _packs keeps their packed slots under
# _P); a class's sums and differences take 2n - 1 slots, so the length never wraps.
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


def _scratch(length: int) -> list[np.ndarray]:
    """The chunk scratch (b, t, s) that one transform class shares."""
    return [np.empty(min(_CHUNK, length), dtype=d) for d in (np.uint64, np.uint32, np.uint32)]


def _transform(x: np.ndarray, roots: np.ndarray, scratch: list[np.ndarray], forward: bool) -> None:
    """The transform y(j) = sum_t x(t) w^(jt) mod _P, in place, for x of length L
    = 2 * len(roots): forward reads x in natural order and leaves y in
    bit-reversed order, and backward the other way round. Applying both gives
    L * x(-j), so a backward transform also inverts, read backwards.

    Stage h pairs the elements h apart in each block of 2h, len(b) pairs at a
    time for the caller's scratch (b, t, s). The stages below _SPAN run on
    transposed copies of 2 len(b) elements held in b, while the stretch of x
    copied, dead until it is written back, serves as the uint64 scratch.
    """
    length = len(x)
    spans = [length >> i for i in range(1, length.bit_length())]  # L/2 .. 1
    step = _forward_butterfly if forward else _backward_butterfly
    b, t, s = scratch

    def butterfly(u, v, w, wide=b):
        shape, size = u.shape, u.size
        step(u, v, w, wide[:size].reshape(shape), t[:size].reshape(shape), s[:size].reshape(shape))

    def stage(h):
        pairs, w = x.reshape(-1, 2, h), roots[:: len(roots) // h]
        rows, cols = max(1, len(b) // h), min(h, len(b))
        for r in range(0, len(pairs), rows):
            for k in range(0, h, cols):
                butterfly(pairs[r : r + rows, 0, k : k + cols], pairs[r : r + rows, 1, k : k + cols], w[k : k + cols])

    def short_stages(hs):
        blocks, rows = x.reshape(-1, _SPAN), 2 * len(b) // _SPAN
        for r in range(0, len(blocks), rows):
            part = blocks[r : r + rows]
            block = b.view(np.uint32)[: part.size].reshape(_SPAN, -1)
            block[...] = part.T
            for h in hs:
                pairs = block.reshape(_SPAN // (2 * h), 2, h, -1)
                butterfly(pairs[:, 0], pairs[:, 1], roots[:: len(roots) // h][:h, None], part.view(np.uint64).ravel())
            part[...] = block.T

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


def _spectrum(x: np.ndarray, roots: np.ndarray, scratch: list[np.ndarray]) -> np.ndarray:
    """A in bit-reversed order, the forward transform of the sorted class x's
    indicator a (a(j - 1) = 1 for j in x). The indicator holds c with c^2 =
    1/L, so that a product of two spectra comes back unscaled."""
    length = 2 * len(roots)
    a = np.zeros(length, dtype=np.uint32)
    a[x - 1] = pow(_ROOT2, 1 - length.bit_length(), _P)
    _transform(a, roots, scratch, forward=True)
    return a


def _forward_square(x: np.ndarray, roots: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """A(j)^2 in bit-reversed order, for A the class x's _spectrum; A(j) A(-j),
    the transform of the class's differences, is added to acc on the way.

    In bit-reversed order position 0 holds A(0), and each block [2^s, 2^(s+1))
    holds A(j) for the j of one 2-adic valuation, where A(-j) sits at the
    mirror position.
    """
    length = 2 * len(roots)
    scratch = b, t, s = _scratch(length)
    a = _spectrum(x, roots, scratch)
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
    for sq in a.reshape(-1, len(b)):
        _mulmod(sq, sq, sq, b, t)
    return a


def _packs(i: int, j: int) -> bool:
    """Whether one backward transform carries classes of sizes i and j: a slot
    of Q_i counts at most i pairs and one of Q_j at most j, so every packed
    slot Q_i + (i + 1) Q_j is at most (i + 1) j + i, which must stay under _P."""
    return (i + 1) * j + i < _P


def _backward(roots: np.ndarray, y: np.ndarray, z: np.ndarray | None = None, c: int = 0) -> None:
    """Transforms the squared spectrum y back in place. With a second one, z,
    y + c z goes back instead, and its residues Q_y + c Q_z, each Q_y < c,
    are split in place: Q_y into y and Q_z into z."""
    scratch = b, t, s = _scratch(len(y))
    if z is not None:
        for u, v in zip(y.reshape(-1, len(b)), z.reshape(-1, len(b))):
            _mulmod(v, c, s, b, t)
            u += s
            np.subtract(u, _P, out=s)
            np.minimum(u, s, out=u)
    _transform(y, roots, scratch, forward=False)
    if z is not None:
        np.divmod(y, c, out=(z, y))


def _read_sums(y: np.ndarray, n: int, size: int, other: int | None = None) -> np.ndarray:
    """P(l) = #{(a, b) in x * z : a + b = l} at index l = 0..2n, int64, for
    classes x and z of [n] of `size` and `other` members (by default z = x,
    whose P is Q), read cyclically from the backward transform y of their
    spectra's product: a transform shorter than the 2n - 1 slots reads some twice, so P
    must sum to size * other, or OverflowError is raised.
    """
    q = np.zeros(2 * n + 1, dtype=np.int64)
    q[2] = y[0]
    _read_cyclic(q[3:], y[::-1])
    if int(q.sum()) != size * (size if other is None else other):
        which = f"a class of {size}" if other is None else f"classes of {size} and {other}"
        raise OverflowError(f"a transform of length {len(y)} wrapped the sums of {which}")
    return q


def _transform_differences(n: int, roots: np.ndarray, acc: np.ndarray, pairs: int) -> np.ndarray:
    """D(d) = #{(a, b) : a - b = d} at index d + n, int64, summed over the
    classes whose A(j) A(-j) acc holds, from one backward transform of acc.
    D is even in d; read cyclically like the sums, it must total `pairs`,
    the sum of the squared class sizes, or OverflowError is raised.
    """
    _transform(acc, roots, _scratch(len(acc)), forward=False)
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
# host (numpy 2.4) at n = L/4 + 1 and L/2, circulant pairs against a share of
# a packed transform, |X|^2 / L broke even at 19-32 for L >= 2**15, 33-38 at
# 2**14, 51-64 at 2**13, 71-94 at 2**12 and 97-121 at 2**11, where the rule
# gives 25-31, 37.5, 50, 75 and 125.
_CROSSOVER = 25


def _fold(v: np.ndarray, n: int) -> np.ndarray:
    """A histogram indexed 0..2n reduced to residues mod n."""
    r = v[:n] + v[n : 2 * n]
    r[0] += v[2 * n]
    return r


def _rainbow_from_histograms(c: Coloring, cyclic: bool) -> int:
    """Rainbow count from 8 * rainbow = sum_l (S^2 - 4 sum_i R_i^2 + 2 sum_{i != j}
    P_ij^2), with P_ij(l) = #{(x, y) in X_i x X_j : x + y = l} and Q_i = P_ii.

    S = F - sum_i Q_i and R_i = W_i - Q_i, for F(l) all ordered pairs summing
    to l and W_i(l) the x in X_i with l - x in the domain. Same-colored x + y
    = x' + y' means x - x' = y' - y, so sum_{i != j} P_ij^2 = sum_d D(d)^2 -
    sum_i Q_i^2 for same-color differences D. Z_n: mod n, F = n, W_i = |X_i|.

    R_i^2 = W_i^2 - 2 W_i Q_i + Q_i^2 summed needs no W_i array: sum_l W_i^2 =
    sum_{x, y in X_i} (n - |x - y|), and sum_l W_i Q_i = sum_{x in X_i}
    (C(x + n) - C(x)) for C(l) = Q_i(0) + ... + Q_i(l).
    """
    n = c.n
    if c.k < 4:
        return 0
    _check_headroom(n)
    classes = _classes(c)
    work = len(classes) * n
    _check_ceiling(work, CLASS_N_CEILING, f"{len(classes)} color classes times n={n} is {work}")
    # every slot of S is at most n: int32 until S . S
    s = np.full(n, n, dtype=np.int32) if cyclic else (n - np.abs(np.arange(-n - 1, n, dtype=np.int32))).clip(0)
    length = 2 << (n - 1).bit_length()  # twice the smallest power of two >= n: at least 2n - 1
    r_sq = q_sq = 0

    def account(x: np.ndarray, q: np.ndarray) -> None:
        # S, sum Q_i^2 and sum R_i^2 take the class's Q, fresh from its engine
        nonlocal r_sq, q_sq
        m = len(x)
        q = _fold(q, n) if cyclic else q
        np.subtract(s, q, out=s)
        qq = int(np.dot(q, q))
        if cyclic:
            w_sq, wq = n * m * m, m**3
        else:
            w_sq = n * m * m - 2 * int(np.dot(x, np.arange(1 - m, m, 2)))
            np.add.accumulate(q, out=q)  # q turns into C
            wq = int(np.add.reduce(q.take(x + n) - q.take(x)))
        q_sq += qq
        r_sq += w_sq - 2 * wq + qq

    # D of the pair-engine classes in d, and of the transform classes in acc
    d, big = None, []
    for x in classes.values():
        if len(x) ** 2 > _CROSSOVER * (length + 2**13):
            big.append(x)
            continue
        q, diffs = _pair_histograms(x, n)
        d = diffs if d is None else np.add(d, diffs, out=d)
        del diffs
        account(x, q)
        del q  # before the next class's engine
    if big:
        roots, acc = _roots(length), np.zeros(length, dtype=np.uint32)
        pairs = sum(len(x) ** 2 for x in big)
        while big:
            # two classes to a backward transform where their digits fit
            group = big[:2] if len(big) > 1 and _packs(len(big[0]), len(big[1])) else big[:1]
            del big[: len(group)]
            spectra = [_forward_square(x, roots, acc) for x in group]
            _backward(roots, *spectra, c=len(group[0]) + 1)
            for x in group:
                account(x, _read_sums(spectra.pop(0), n, len(x)))
        diffs = _transform_differences(n, roots, acc, pairs)
        del acc, roots
        d = diffs if d is None else np.add(d, diffs, out=d)
        del diffs
    d = _fold(d, n) if cyclic else d
    s = s.astype(np.int64)
    return (int(s @ s) - 4 * r_sq + 2 * (int(d @ d) - q_sq)) // 8


def count_rainbow_fast(c: Coloring) -> int:
    """Rainbow count from per-color pair-sum and pair-difference histograms."""
    if c.domain is not Domain.INTERVAL:
        raise ValueError("count_rainbow_fast expects an interval coloring")
    return _rainbow_from_histograms(c, cyclic=False)


def rainbow_via_energy(c: Coloring) -> int:
    """Rainbow count for a 4-coloring as a sum of three additive energies.

    Each rainbow quad has its color set {1,2,3,4} split across the two sides
    in one of three ways; the energy E_4(X_a, X_b, -X_c, -X_d) = sum_l
    P_ab(l) P_cd(l) counts exactly the quads split as {a,b} vs {c,d}, for P_ab
    the sums of X_a x X_b, sent back from the product of two class spectra.
    Classes being disjoint keeps the four tuple entries distinct, so no
    degenerate tuples are counted.
    """
    if c.domain is not Domain.INTERVAL:
        raise ValueError("rainbow_via_energy expects an interval coloring")
    if c.k != 4:
        raise ValueError(f"energy route needs exactly 4 colors, got k={c.k}")
    _check_headroom(c.n)
    found = _classes(c)
    classes = [found.get(i, np.zeros(0, dtype=np.int32)) for i in range(1, 5)]
    roots = _roots(2 << (c.n - 1).bit_length())
    scratch = b, t, _ = _scratch(2 * len(roots))
    spectra = [_spectrum(x, roots, scratch) for x in classes]

    def profile(i: int, j: int) -> np.ndarray:
        y = np.empty_like(spectra[i])
        for u, v, w in zip(*(z.reshape(-1, len(b)) for z in (spectra[i], spectra[j], y))):
            _mulmod(u, v, w, b, t)
        _backward(roots, y)
        return _read_sums(y, c.n, len(classes[i]), len(classes[j]))

    return sum(int(profile(0, a) @ profile(*cd)) for a, cd in ((1, (2, 3)), (2, (1, 3)), (3, (1, 2))))


def count_rainbow_cyclic_naive(c: Coloring) -> int:
    """Rainbow solutions to x+y = z+t in Z_n by scanning pairs of same-sum pairs.

    Distinct pairs with equal sum mod n are disjoint, and the same 4-set may
    balance under a second pairing, which counts as a separate solution.
    """
    if c.domain is not Domain.CYCLIC:
        raise ValueError("count_rainbow_cyclic_naive expects a cyclic coloring")
    # the scan visits each balanced pairing of |S(n)| once
    _check_scan(modular_count_formula(c.n), f"a cyclic naive scan of n={c.n}")
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
    the pair counts each non-rainbow quad at most six times. f_n_exact takes
    a block of a class's pairs at a time; more than SCAN_CEILING same-colored
    pairs are refused before any is formed.
    """
    if c.domain is not Domain.INTERVAL:
        raise ValueError("non_rainbow_lower_bound expects an interval coloring")
    classes = [x.astype(np.int64) for x in _classes(c).values()]
    pairs = sum(len(x) * (len(x) - 1) // 2 for x in classes)
    _check_ceiling(pairs, SCAN_CEILING, f"the floor would sum over {pairs} same-colored pairs")
    total = 0
    for x in classes:
        rows = max(1, _SCAN_BLOCK // len(x))
        for i in range(0, len(x), rows):
            # rows b of the block against the later members a of the class,
            # through read-only broadcast views: writeable ones stay traced
            b, a = x[i : i + rows, None], x[i + 1 :]
            later = b < a
            b, a = (np.broadcast_to(y, later.shape)[later] for y in (b, a))
            total += int(f_n_exact(c.n, b, a).sum())
    return Fraction(total, 6)
