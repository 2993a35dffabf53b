"""Representation functions r_{A+B}, interval compression, and t-fold additive energy.

All counts are exact integers. Profiles and energies are products of sets by
Kronecker substitution: a set A becomes the Python int with digit 1 at each
a - min A, in digits of w bytes, and CPython's exact big-int product of such
ints holds r(m) in digit m - lo. w is the fewest of 1, 2, 4 or 8 bytes that
hold a bound on every count, so no carry crosses a digit. The closed forms
and both dominance checks take ints or int64 arrays of radii and of m, and
broadcast over them.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


class IntSet(tuple):
    """Finite set of distinct integers: the tuple of its elements, strictly increasing."""

    __slots__ = ()

    def __new__(cls, values: Iterable[int]):
        vals = sorted(values)
        if len(set(vals)) < len(vals):
            raise ValueError(f"duplicate element {next(a for a, b in zip(vals, vals[1:]) if a == b)}")
        return super().__new__(cls, vals)

    def __repr__(self):
        return f"IntSet({list(self)})"


# The most bytes one product may take: the sum of its sets' spans times the
# digit width. Four sets of 25,000 elements spanning [1, 25000] come to
# 800,000 bytes, which takes about 2 s on a 2-vCPU x86 host (CPython 3.11).
PRODUCT_CEILING = 800_000


def _product(sets: Sequence[IntSet], bound: int) -> tuple[int, int, int]:
    """(lo, width, product): lo = the sum of min A_i, and the product of the
    sets by Kronecker substitution in digits of width bytes, the fewest that
    hold bound; ValueError above PRODUCT_CEILING, before any buffer is built."""
    width = next(w for w in (1, 2, 4, 8) if bound < 256**w)
    size = sum(s[-1] - s[0] + 1 for s in sets) * width
    if size > PRODUCT_CEILING:
        raise ValueError(f"a product of these sets would take {size} bytes, over the ceiling of {PRODUCT_CEILING}")
    lo, product = 0, 1
    for s in sets:
        digits = bytearray((s[-1] - s[0] + 1) * width)
        for a in s:
            digits[(a - s[0]) * width] = 1
        product *= int.from_bytes(digits, "little")
        lo += s[0]
    return lo, width, product


def rep_profile(A: IntSet, B: IntSet) -> tuple[int, np.ndarray]:
    """(lo, counts): counts[i] = r_{A+B}(lo + i) = #{(a,b) in A x B : a+b = lo+i}, int64, from lo =
    min A + min B (a Python int) to max A + max B, read from every digit of one
    product whose counts are at most min(|A|, |B|)."""
    if not len(A) or not len(B):
        raise ValueError("rep_profile needs nonempty sets")
    lo, width, product = _product((A, B), min(len(A), len(B)))
    digits = product.to_bytes((A[-1] + B[-1] - lo + 1) * width, "little")
    return lo, np.frombuffer(digits, dtype=f"<u{width}").astype(np.int64)


def _interval(r: int) -> IntSet:
    return IntSet(range(-r, r + 1))


def interval_compress(size: int) -> IntSet:
    """The symmetric interval [-ceil(size/2), ceil(size/2)]; depends only on cardinality."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    return _interval((size + 1) // 2)


def additive_energy(sets: Sequence[IntSet]) -> int:
    """E_t: number of tuples (a_1..a_t), a_i from sets[i], with zero sum.

    Multiplies the sets, then reads the one digit at 0. Any empty set gives 0.
    Every digit is at most prod(|A_i|), which must fit 8 bytes: it raises
    ValueError above 2**63 - 1, or above PRODUCT_CEILING bytes, before any
    buffer is built.
    """
    if len(sets) < 2:
        raise ValueError("need at least two sets")
    if any(len(s) == 0 for s in sets):
        return 0
    bound = math.prod(len(s) for s in sets)
    if bound > 2**63 - 1:
        raise ValueError("product of set sizes exceeds 2**63 - 1: counts would overflow 8-byte digits")
    lo, width, product = _product(sets, bound)
    return (product >> (8 * width * -lo)) & (256**width - 1) if lo <= 0 else 0


def closed_rep_two_intervals(alpha, beta, m):
    """r_{[-alpha,alpha]+[-beta,beta]}(m): a plateau of height 2*alpha+1 for
    |m| <= beta-alpha, linear decay alpha+beta+1-|m| out to |m| = alpha+beta, then 0.
    Ints give an int; arrays of m (and of radii) give the broadcast int64 array."""
    alpha, beta = np.asarray(alpha, dtype=np.int64), np.asarray(beta, dtype=np.int64)
    if not np.all((1 <= alpha) & (alpha <= beta)):
        raise ValueError(f"need 1 <= alpha <= beta, got alpha={alpha}, beta={beta}")
    # the decay alpha+beta+1-|m| is at least 2*alpha+1 exactly on the plateau
    r = np.minimum(np.maximum(alpha + beta + 1 - abs(m), 0), 2 * alpha + 1)
    return r if isinstance(r, np.ndarray) else int(r)


def closed_rep_one_interval(alpha, m):
    """r_{J+J}(m) for J = [-alpha, alpha]: the triangle 2*alpha+1-|m|, clipped at 0.
    Ints give an int; arrays of m (and of alpha) give the broadcast int64 array."""
    alpha = np.asarray(alpha, dtype=np.int64)
    if np.any(alpha < 1):
        raise ValueError(f"need alpha >= 1, got {alpha}")
    r = np.maximum(2 * alpha + 1 - abs(m), 0)
    return r if isinstance(r, np.ndarray) else int(r)


def closed_energy4_interval(alpha):
    """E_4 of four copies of [-alpha, alpha]: 16a^3/3 + 8a^2 + 14a/3 + 1, exactly,
    for an int or elementwise for an array of alpha, widened to int64.

    16a^3 + 14a is always divisible by 3, so the value is an integer.
    """
    alpha = alpha.astype(np.int64) if isinstance(alpha, np.ndarray) else alpha
    if np.any(alpha < 1):
        raise ValueError(f"need alpha >= 1, got {alpha}")
    cubic = 16 * alpha**3 + 14 * alpha
    assert np.all(cubic % 3 == 0)
    return cubic // 3 + 8 * alpha**2 + 1


def _pair_reps(a1, a2, a3, a4, m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """s = a1+a2+a3+a4 (radii >= 1, 4 | s, else ValueError), then r_{A1+A2} and
    r_{A3+A4}, A_i = [-a_i, a_i], from the closed forms: radii of shape S and m
    of shape (M,) give s of shape S + (1,) and values of shape S + (M,)."""
    a1, a2, a3, a4 = (np.asarray(a, dtype=np.int64)[..., None] for a in (a1, a2, a3, a4))
    if np.any(np.minimum(np.minimum(a1, a2), np.minimum(a3, a4)) < 1):
        raise ValueError("interval radii must be >= 1")
    s = a1 + a2 + a3 + a4
    if np.any(s % 4):
        raise ValueError(f"sum of radii must be divisible by 4, got {s[s % 4 != 0][0]}")
    r12, r34 = (closed_rep_two_intervals(np.minimum(a, b), np.maximum(a, b), m) for a, b in ((a1, a2), (a3, a4)))
    return s, r12, r34


def check_sum_dominance(a1, a2, a3, a4, m) -> bool:
    """With A_i = [-a_i, a_i] and J = [-s/4, s/4] for s = a1+a2+a3+a4 (4 | s),
    test r_{A1+A2}(m) + r_{A3+A4}(m) <= 2 r_{J+J}(m) at m, an int or an int64
    array of m, for radii given as ints or as arrays of radius tuples (True when
    it holds for every tuple at every m; ValueError if any |m| > s/2).

    Truthful evaluation: the inequality provably holds whenever |m| lies within
    both pair supports (|m| <= a1+a2 and |m| <= a3+a4) but can fail once one
    pair's profile has dropped to zero while the other is still positive, e.g.
    radii (1,1,1,5) at m=4 give 3 > 2. Callers asserting dominance must stay
    inside both supports; check_energy_dominance covers the aggregate form that
    needs no such restriction.
    """
    m = np.asarray(m, dtype=np.int64)
    s, r12, r34 = _pair_reps(a1, a2, a3, a4, m)
    if np.any(abs(m) > s // 2):
        raise ValueError(f"|m| = {abs(m).max()} exceeds {(s // 2).min()}")
    return bool(np.all(r12 + r34 <= 2 * closed_rep_one_interval(s // 4, m)))


def check_energy_dominance(a1, a2, a3, a4) -> bool:
    """Aggregate form: sum_m r_{A1+A2}(m) * r_{A3+A4}(m) <= sum_{|m| <= s/2} r_{J+J}(m)^2,
    which is E_4 of four copies of J = [-s/4, s/4] (closed_energy4_interval), for
    radii given as ints or as arrays of radius tuples (True when every tuple holds).

    Holds for every radius tuple with 4 | s: where both factors are positive the
    pointwise bound applies, and elsewhere the product is zero. The left side
    is read off the closed forms over |m| <= the widest min(a1 + a2, a3 + a4):
    outside a tuple's own, one of its factors is zero.
    """
    reach = np.max(np.minimum(np.add(a1, a2, dtype=np.int64), np.add(a3, a4, dtype=np.int64)), initial=0)
    s, r12, r34 = _pair_reps(a1, a2, a3, a4, np.arange(-reach, reach + 1))
    return bool(np.all(np.sum(r12 * r34, axis=-1) <= closed_energy4_interval(s[..., 0] // 4)))


def check_lev(sets: Sequence[IntSet]) -> bool:
    """Lev's compression inequality: E_t of the sets is at most E_t of the
    symmetric intervals holding the same cardinalities."""
    if len(sets) < 2:
        raise ValueError("need at least two sets")
    if any(len(s) == 0 for s in sets):
        return True
    compressed = [interval_compress(len(s)) for s in sets]
    return additive_energy(sets) <= additive_energy(compressed)
