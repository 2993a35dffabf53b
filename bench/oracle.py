"""Independent routes to the values the benchmark jobs must print.

Nothing here imports sidonrainbow. Each function reaches its value by a route
that shares no code with the library:

  rainbow_interval / rainbow_cyclic
      colour-pair sum profiles from FFT convolution of class indicators
      (rounded, with the rounding margin checked), combined by
      inclusion-exclusion over ordered colour pairs:
      per sum l, (S^2 - 4 sum_i R_i^2 + 2 sum_ij P_ij^2) / 8.
  local_search_best
      the library's hill-climbing contract (start 0 is the mod-k colouring,
      start r draws random.Random(seed + r), best strictly improving move,
      ties to the smallest element then colour) replayed with numpy gain
      tables.
  brute_force_ar4
      every 4-colouring of [n] scored at once with numpy.

The library's own independent counters (naive scan, energies) cross-check
these routes in bench/test_smoke.py.
"""
from __future__ import annotations

import random
from fractions import Fraction

import numpy as np


def quads_total(n: int) -> int:
    """Number of Sidon 4-sets of [n]: sum over pair sums l of C(pairs(l), 2)."""
    total = 0
    for l in range(3, 2 * n):
        p = max(0, (l - 1) // 2 - max(1, l - n) + 1)
        total += p * (p - 1) // 2
    return total


def canonical_colorings(n: int, k: int) -> int:
    """Partitions of [n] into at most k blocks, by the block-count recurrence."""
    ways = {0: 1}  # blocks used -> number of set partitions of the prefix
    for _ in range(n):
        nxt: dict[int, int] = {}
        for b, w in ways.items():
            if b:
                nxt[b] = nxt.get(b, 0) + w * b
            if b < k:
                nxt[b + 1] = nxt.get(b + 1, 0) + w
        ways = nxt
    return sum(ways.values())


def random_colors(n: int, k: int, seed: int) -> list[int]:
    """The library's documented random colouring: random.Random(seed).randint(1, k) per element."""
    rng = random.Random(seed)
    return [rng.randint(1, k) for _ in range(n)]


def _rounded(x: np.ndarray) -> np.ndarray:
    r = np.rint(x)
    if x.size and np.abs(x - r).max() > 0.25:
        raise ArithmeticError("FFT convolution lost integer precision")
    return r.astype(np.int64)


def _rainbow_from_spectra(spec: np.ndarray, size: int, width: int) -> int:
    k = spec.shape[0]
    S = np.zeros(width, dtype=np.int64)
    R = np.zeros((k, width), dtype=np.int64)
    SQ = np.zeros(width, dtype=np.int64)
    for i in range(k - 1):
        P = _rounded(np.fft.irfft(spec[i] * spec[i + 1 :], size, axis=1)[:, :width])
        S += 2 * P.sum(axis=0)
        R[i] += P.sum(axis=0)
        R[i + 1 :] += P
        SQ += 2 * (P * P).sum(axis=0)
    per_sum = S * S - 4 * (R * R).sum(axis=0) + 2 * SQ
    total = int(per_sum.sum())
    if total % 8:
        raise ArithmeticError("ordered pair products not divisible by 8")
    return total // 8


def _indicators(colors: list[int], k: int, width: int, cyclic: bool) -> np.ndarray:
    n = len(colors)
    ind = np.zeros((k, width), dtype=np.float64)
    pos = np.arange(1, n + 1) % n if cyclic else np.arange(1, n + 1)
    ind[np.asarray(colors) - 1, pos] = 1.0
    return ind


def rainbow_interval(colors: list[int], k: int) -> int:
    """Rainbow Sidon 4-sets of [n] under the colouring (colors[x-1] is x's colour)."""
    n = len(colors)
    width = 2 * n + 1
    size = 1 << (width - 1).bit_length()
    spec = np.fft.rfft(_indicators(colors, k, n + 1, cyclic=False), size, axis=1)
    return _rainbow_from_spectra(spec, size, width)


def rainbow_cyclic(colors: list[int], k: int) -> int:
    """Rainbow solutions of x + y = z + t in Z_n, each balanced pairing counted once."""
    n = len(colors)
    spec = np.fft.rfft(_indicators(colors, k, n, cyclic=True), n, axis=1)
    return _rainbow_from_spectra(spec, n, n)


def _quads(n: int) -> np.ndarray:
    """Zero-based Sidon 4-sets a < b < c < d with a + d = b + c, one per row."""
    rows = [
        (a, b, c, b + c - a)
        for a in range(n)
        for b in range(a + 1, n)
        for c in range(b + 1, min(n, n + a - b))
    ]
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


class _Climber:
    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.quads = _quads(n)
        self.popcount = np.array([bin(m).count("1") for m in range(1 << (k + 1))])

    def count(self, masks: np.ndarray) -> int:
        m = masks[self.quads]
        return int((self.popcount[m[:, 0] | m[:, 1] | m[:, 2] | m[:, 3]] == 4).sum())

    def best_move(self, cols: np.ndarray, masks: np.ndarray) -> tuple[int, int, int]:
        """(gain, element, colour) of the first best recolouring in (element, colour) order."""
        n, k = self.n, self.k
        m = masks[self.quads]
        gains = np.zeros((n, k + 1), dtype=np.int64)
        for p in range(4):
            others = np.bitwise_or.reduce(np.delete(m, p, axis=1), axis=1)
            three = self.popcount[others] == 3
            elem, others = self.quads[three, p], others[three]
            for col in range(1, k + 1):
                free = (others >> col) & 1 == 0
                gains[:, col] += np.bincount(elem[free], minlength=n)
        delta = gains[:, 1:] - gains[np.arange(n), cols][:, None]
        flat = int(np.argmax(delta))
        return int(delta.flat[flat]), flat // k, flat % k + 1

    def climb(self, cols: np.ndarray, budget: int) -> tuple[int, int]:
        masks = np.left_shift(1, cols)
        count, moves = self.count(masks), 0
        while moves < budget:
            gain, i, col = self.best_move(cols, masks)
            if gain <= 0:
                break
            cols[i], masks[i] = col, 1 << col
            count += gain
            moves += 1
        return count, moves


def local_search_best(n: int, k: int, seed: int, restarts: int, max_moves: int) -> tuple[int, int]:
    """(best rainbow count, moves used) of the library's local_search on these arguments."""
    climber = _Climber(n, k)
    best, used_total, left = -1, 0, max_moves
    for r in range(restarts):
        if r == 0:
            start = [i % k + 1 for i in range(n)]
        else:
            start = random_colors(n, k, seed + r)
        count, used = climber.climb(np.array(start, dtype=np.int64), left)
        left -= used
        used_total += used
        best = max(best, count)
        if left <= 0:
            break
    return best, used_total


def brute_force_ar4(n: int) -> tuple[int, bool]:
    """(max rainbow count over all 4-colourings of [n], Fox spot check answer).

    The spot check asks whether every 4-colouring whose classes all have at
    least ceil((n+1)/6) elements contains a rainbow quad.
    """
    codes = np.arange(4**n, dtype=np.int64)
    digits = [((codes >> (2 * x)) & 3).astype(np.uint8) for x in range(n)]
    bits = [np.left_shift(np.uint8(1), d) for d in digits]
    rainbow = np.zeros(4**n, dtype=np.int32)
    for a, b, c, d in _quads(n):
        rainbow += (bits[a] | bits[b] | bits[c] | bits[d]) == 15
    threshold = -((n + 1) // -6)
    balanced = np.ones(4**n, dtype=bool)
    for col in range(4):
        balanced &= sum((d == col).astype(np.int32) for d in digits) >= threshold
    return int(rainbow.max()), not bool(np.any(balanced & (rainbow == 0)))


def total_line(n: int) -> str:
    """One line of `total --range`: formula, sum buckets and enumeration agree."""
    t = quads_total(n)
    return f"n={n} {t} {t} {t} OK"


def sweep_csv(k: int, ns: list[int], seed: int) -> str:
    """The CSV `sweep --coloring random` writes for these arguments."""
    theta_lb = Fraction(1, 3) if k % 2 == 0 else Fraction(1, 4)
    lb = Fraction(1, 12) - Fraction(1, 3 * k) + theta_lb / k**2
    ub = Fraction(1, 12) - Fraction(1, 24 * k)
    lines = ["n,k,coloring,rainbow,total,ratio,lb_coeff,ub_coeff"]
    for n in ns:
        rainbow = rainbow_interval(random_colors(n, k, seed), k)
        ratio = f"{float(Fraction(rainbow, n**3)):.8f}"
        lines.append(
            f"{n},{k},random,{rainbow},{quads_total(n)},{ratio},"
            f"{lb.numerator}/{lb.denominator},{ub.numerator}/{ub.denominator}"
        )
    return "\r\n".join(lines) + "\r\n"
