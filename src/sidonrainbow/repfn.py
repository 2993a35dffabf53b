"""Representation functions r_{A+B}, interval compression, and t-fold additive energy.

All counts are exact integers. A profile is a direct pairwise accumulation:
np.bincount tallies the sums a + b of a block of rows of A against all of B,
about _BLOCK pairs (at least one row) at a time. The energy fold convolves
indicator arrays with numpy's integer convolution, a separate route checked
against a pure-Python fold in tests. The closed forms and the pointwise
dominance check take one m or an int64 array of m.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class IntSet:
    """Finite set of distinct integers, kept strictly increasing."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]):
        vals = tuple(sorted(values))
        if len(set(vals)) < len(vals):
            raise ValueError(f"duplicate element {next(a for a, b in zip(vals, vals[1:]) if a == b)}")
        self.values: tuple[int, ...] = vals

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __contains__(self, x):
        return x in self.values

    def __eq__(self, other):
        return isinstance(other, IntSet) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"IntSet({list(self.values)})"


@dataclass(frozen=True, slots=True)
class RepProfile:
    """Exact counts m -> r(m) on the support window [lo, hi]; zero outside."""

    lo: int
    hi: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.hi - self.lo + 1:
            raise ValueError("counts length does not match [lo, hi]")

    def __getitem__(self, m: int) -> int:
        return self.counts[m - self.lo] if self.lo <= m <= self.hi else 0

    def window(self, lo: int, hi: int) -> np.ndarray:
        """r(m) for m = lo..hi as an int64 array, zero outside [self.lo, self.hi]."""
        out = np.zeros(hi - lo + 1, dtype=np.int64)
        a, b = max(lo, self.lo), min(hi, self.hi)
        if a <= b:
            out[a - lo : b - lo + 1] = self.counts[a - self.lo : b - self.lo + 1]
        return out


# pairs (a, b) that rep_profile tallies at a time: 4 KiB of intp sums, plus
# about twice that in numpy's buffers for the broadcast operands
_BLOCK = 1 << 9


def rep_profile(A: IntSet, B: IntSet) -> RepProfile:
    """r_{A+B}(m) = #{(a,b) in A x B : a+b = m} for every m, by blocked direct accumulation."""
    if not len(A) or not len(B):
        raise ValueError("rep_profile needs nonempty sets")
    lo, hi = A.values[0] + B.values[0], A.values[-1] + B.values[-1]
    # offsets from the smallest elements, so a + b - lo is a small index
    a = np.array([x - A.values[0] for x in A.values], dtype=np.intp)
    b = np.array([y - B.values[0] for y in B.values], dtype=np.intp)
    counts = np.zeros(hi - lo + 1, dtype=np.int64)
    rows = max(1, _BLOCK // len(b))
    for i in range(0, len(a), rows):
        counts += np.bincount(np.add.outer(a[i : i + rows], b).ravel(), minlength=len(counts))
    return RepProfile(lo, hi, tuple(counts.tolist()))


def _interval(r: int) -> IntSet:
    return IntSet(range(-r, r + 1))


def interval_compress(size: int) -> IntSet:
    """The symmetric interval [-ceil(size/2), ceil(size/2)]; depends only on cardinality."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    return _interval((size + 1) // 2)


def _indicator(A: IntSet) -> tuple[int, np.ndarray]:
    lo = A.values[0]
    arr = np.zeros(A.values[-1] - lo + 1, dtype=np.int64)
    arr[[a - lo for a in A.values]] = 1
    return lo, arr


# The most multiply-adds one additive_energy fold may take over its convolutions.
# Four sets spanning [1, n] take about 6 n^2: 2.4 * 10^9 at n = 20000, which
# takes 2 s on a 2-vCPU x86 host (numpy 2.4), and 6 * 10^10 at n = 10^5.
ENERGY_CEILING = 4_000_000_000


def additive_energy(sets: Sequence[IntSet]) -> int:
    """E_t: number of tuples (a_1..a_t), a_i from sets[i], with zero sum.

    Folds indicator arrays by integer convolution, then reads the count at 0.
    Any empty set gives 0. Every intermediate count is at most prod(|A_i|),
    so the fold needs prod(|A_i|) <= 2**63 - 1 and raises ValueError beyond,
    or above ENERGY_CEILING multiply-adds, before any array is built.
    """
    if len(sets) < 2:
        raise ValueError("need at least two sets")
    if any(len(s) == 0 for s in sets):
        return 0
    if math.prod(len(s) for s in sets) > 2**63 - 1:
        raise ValueError("product of set sizes exceeds 2**63 - 1: int64 fold would overflow")
    # convolution i costs the running length, sum(spans[:i]) - (i - 1), times spans[i]
    spans = [s.values[-1] - s.values[0] + 1 for s in sets]
    work = sum((sum(spans[:i]) - i + 1) * spans[i] for i in range(1, len(spans)))
    if work > ENERGY_CEILING:
        raise ValueError(
            f"an energy fold would take {work} multiply-adds, over the ceiling of {ENERGY_CEILING}"
        )
    lo, acc = _indicator(sets[0])
    for s in sets[1:]:
        slo, sarr = _indicator(s)
        acc = np.convolve(acc, sarr)
        lo += slo
    if lo <= 0 < lo + len(acc):
        return int(acc[-lo])
    return 0


def closed_rep_two_intervals(alpha: int, beta: int, m):
    """r_{[-alpha,alpha]+[-beta,beta]}(m): a plateau of height 2*alpha+1 for
    |m| <= beta-alpha, linear decay alpha+beta+1-|m| out to |m| = alpha+beta, then 0.
    An int m gives an int; an int64 array of m gives the int64 array of values."""
    if alpha < 1 or alpha > beta:
        raise ValueError(f"need 1 <= alpha <= beta, got alpha={alpha}, beta={beta}")
    # the decay alpha+beta+1-|m| is at least 2*alpha+1 exactly on the plateau
    r = np.minimum(np.maximum(alpha + beta + 1 - abs(m), 0), 2 * alpha + 1)
    return r if isinstance(m, np.ndarray) else int(r)


def closed_rep_one_interval(alpha: int, m):
    """r_{J+J}(m) for J = [-alpha, alpha]: the triangle 2*alpha+1-|m|, clipped at 0.
    An int m gives an int; an int64 array of m gives the int64 array of values."""
    if alpha < 1:
        raise ValueError(f"need alpha >= 1, got {alpha}")
    r = np.maximum(2 * alpha + 1 - abs(m), 0)
    return r if isinstance(m, np.ndarray) else int(r)


def closed_energy4_interval(alpha: int) -> int:
    """E_4 of four copies of [-alpha, alpha]: 16a^3/3 + 8a^2 + 14a/3 + 1, exactly.

    16a^3 + 14a is always divisible by 3, so the value is an integer.
    """
    if alpha < 1:
        raise ValueError(f"need alpha >= 1, got {alpha}")
    cubic = 16 * alpha**3 + 14 * alpha
    assert cubic % 3 == 0
    return cubic // 3 + 8 * alpha**2 + 1


def check_sum_dominance(a1: int, a2: int, a3: int, a4: int, m) -> bool:
    """With A_i = [-a_i, a_i] and J = [-s/4, s/4] for s = a1+a2+a3+a4 (4 | s),
    test r_{A1+A2}(m) + r_{A3+A4}(m) <= 2 r_{J+J}(m) at m, an int or an int64
    array of m (True when it holds at every one; ValueError if any |m| > s/2).

    Truthful evaluation: the inequality provably holds whenever |m| lies within
    both pair supports (|m| <= a1+a2 and |m| <= a3+a4) but can fail once one
    pair's profile has dropped to zero while the other is still positive, e.g.
    radii (1,1,1,5) at m=4 give 3 > 2. Callers asserting dominance must stay
    inside both supports; check_energy_dominance covers the aggregate form that
    needs no such restriction.
    """
    if min(a1, a2, a3, a4) < 1:
        raise ValueError("interval radii must be >= 1")
    s = a1 + a2 + a3 + a4
    if s % 4 != 0:
        raise ValueError(f"sum of radii must be divisible by 4, got {s}")
    m = np.asarray(m, dtype=np.int64)
    worst = int(np.abs(m).max(initial=0))
    if worst > s // 2:
        raise ValueError(f"|m| = {worst} exceeds {s // 2}")
    lhs = closed_rep_two_intervals(min(a1, a2), max(a1, a2), m)
    lhs = lhs + closed_rep_two_intervals(min(a3, a4), max(a3, a4), m)
    return bool((lhs <= 2 * closed_rep_one_interval(s // 4, m)).all())


def check_energy_dominance(a1: int, a2: int, a3: int, a4: int, profiles=None) -> bool:
    """Aggregate form: sum_m r_{A1+A2}(m) * r_{A3+A4}(m) <= sum_{|m| <= s/2} r_{J+J}(m)^2,
    which is E_4 of four copies of J = [-s/4, s/4] (closed_energy4_interval).

    Holds for every radius tuple with 4 | s: where both factors are positive the
    pointwise bound applies, and elsewhere the product is zero. `profiles`, if
    given, maps (a, b) to rep_profile([-a, a], [-b, b]) for both radius pairs,
    so a caller checking many tuples builds each profile once.
    """
    if min(a1, a2, a3, a4) < 1:
        raise ValueError("interval radii must be >= 1")
    s = a1 + a2 + a3 + a4
    if s % 4 != 0:
        raise ValueError(f"sum of radii must be divisible by 4, got {s}")
    if profiles is None:
        profiles = {(a, b): rep_profile(_interval(a), _interval(b)) for a, b in ((a1, a2), (a3, a4))}
    half = s // 2
    # both profiles vanish beyond |m| = min(a1 + a2, a3 + a4) <= s/2
    lhs = int(np.dot(profiles[a1, a2].window(-half, half), profiles[a3, a4].window(-half, half)))
    return lhs <= closed_energy4_interval(s // 4)


def check_lev(sets: Sequence[IntSet]) -> bool:
    """Lev's compression inequality: E_t of the sets is at most E_t of the
    symmetric intervals holding the same cardinalities."""
    if len(sets) < 2:
        raise ValueError("need at least two sets")
    if any(len(s) == 0 for s in sets):
        return True
    compressed = [interval_compress(len(s)) for s in sets]
    return additive_energy(sets) <= additive_energy(compressed)
