"""Domain types: colorings of [n] and Z_n, canonical Sidon 4-sets, class breakdowns.

A Sidon 4-set is a set of four distinct integers {x1 > x2 > x3 > x4} with
x1 + x4 = x2 + x3. For distinct integers only the extremes-vs-middles pairing
can balance, so the pairing is implied by the set. Over Z_n the pairing is part
of the object (the same four residues can balance in more than one way).

Residues of Z_n are represented by {1..n}, with n standing for the class of 0.

_check_ceiling is the one refusal of a request whose work exceeds a method's
ceiling, shared by every module that caps its work.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np


class Domain(Enum):
    INTERVAL = "interval"
    CYCLIC = "cyclic"


@dataclass(frozen=True)
class Coloring:
    """Assignment of one of k colors to each element of [n] or Z_n.

    colors[i-1] is the color of element i; colors take values in {1..k}.
    Colorings need not be onto. Immutable once constructed.
    """

    domain: Domain
    n: int
    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if any(not isinstance(v, int) or isinstance(v, bool) for v in (self.n, self.k)):
            raise ValueError("fields n and k must be integers")
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got n={self.n}, k={self.k}")
        if len(self.colors) != self.n:
            raise ValueError(f"length mismatch: expected {self.n} colors, got {len(self.colors)}")
        colors = self.colors
        # checked in C first; the loop, which names the index, only on failure
        if not (set(map(type, colors)) <= {int} and 1 <= min(colors) and max(colors) <= self.k):
            for idx, c in enumerate(colors):
                if not isinstance(c, int) or isinstance(c, bool) or not 1 <= c <= self.k:
                    raise ValueError(f"color out of range at index {idx}")


@dataclass(frozen=True, order=True)
class SidonQuad:
    """Canonical solution x1 + x4 = x2 + x3 with x1 > x2 > x3 > x4 in [n].

    The sides are {x1, x4} and {x2, x3}; no other pairing of four distinct
    integers can satisfy the equation, so the sides are not stored.
    """

    x1: int
    x2: int
    x3: int
    x4: int

    def __post_init__(self):
        if not (self.x1 > self.x2 > self.x3 > self.x4):
            raise ValueError(f"not in canonical descending order: {self}")
        if self.x1 + self.x4 != self.x2 + self.x3:
            raise ValueError(f"{self.x1}+{self.x4} != {self.x2}+{self.x3}")


@dataclass(frozen=True, order=True)
class ModularSidonQuad:
    """Two disjoint residue pairs with equal sums mod k: pair_a + pair_b balance.

    Residues live in {1..k}. Canonical form sorts within each pair and puts the
    lexicographically smaller pair first. Two objects over the same 4-set with
    different pairings are distinct solutions.
    """

    pair_a: tuple[int, int]
    pair_b: tuple[int, int]
    modulus: int

    def __post_init__(self):
        k = self.modulus
        a, b = self.pair_a
        c, d = self.pair_b
        if k < 1:
            raise ValueError("modulus must be >= 1")
        for r in (a, b, c, d):
            if not 1 <= r <= k:
                raise ValueError(f"residue {r} outside {{1..{k}}}")
        if len({a, b, c, d}) != 4:
            raise ValueError("residues must be four distinct values")
        if not (a < b and c < d and self.pair_a < self.pair_b):
            raise ValueError(f"not in canonical pair order: {self}")
        if (a + b) % k != (c + d) % k:
            raise ValueError(f"{a}+{b} != {c}+{d} (mod {k})")


@dataclass(frozen=True)
class ClassBreakdown:
    """Counts of Sidon 4-sets by number of distinct colors among the four elements."""

    rainbow: int = 0
    monochromatic: int = 0
    two_colored: int = 0
    three_colored: int = 0

    @property
    def total(self) -> int:
        return self.rainbow + self.monochromatic + self.two_colored + self.three_colored


def make_quad(a: int, b: int, c: int, d: int, n: int) -> Optional[SidonQuad]:
    """Canonicalize four values in [n] into a SidonQuad, or None if they are not one.

    None (a rejection, not an error) when the values repeat or no pairing
    balances; ValueError when any value lies outside [1, n].
    """
    for v in (a, b, c, d):
        if not 1 <= v <= n:
            raise ValueError(f"value {v} outside [1, {n}]")
    x4, x3, x2, x1 = sorted((a, b, c, d))
    if len({a, b, c, d}) != 4 or x1 + x4 != x2 + x3:
        return None
    return SidonQuad(x1, x2, x3, x4)


def _check_ceiling(work: int, ceiling: int, what: str) -> None:
    """Refuse work above a method's ceiling: a ValueError of what, then the ceiling."""
    if work > ceiling:
        raise ValueError(f"{what}, over the ceiling of {ceiling}")


def _check_family(n: int, k: int, surjective: bool) -> None:
    """Refuse an (n, k) outside a coloring family: n >= k >= 1 for a surjective
    one such as mod_coloring, n >= 1 and k >= 1 otherwise."""
    if surjective and not 1 <= k <= n:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")


def mod_coloring(n: int, k: int, domain: Domain = Domain.INTERVAL) -> Coloring:
    """The coloring c(i) = i mod k with residues renamed into {1..k}.

    Surjective by construction, hence requires n >= k.
    """
    _check_family(n, k, surjective=True)
    return Coloring(domain, n, k, tuple((i - 1) % k + 1 for i in range(1, n + 1)))


def random_coloring(n: int, k: int, seed: int, domain: Domain = Domain.INTERVAL) -> Coloring:
    """Uniform independent colors from {1..k}, deterministic in seed: the n values
    random.Random(seed).randint(1, k) gives, drawn in bulk. Each is a getrandbits(b)
    below k, b = k.bit_length(): w = ceil(b / 32) Mersenne Twister words, low first,
    the last shifted right by 32w - b; getrandbits(32w * d) gives d such draws' words."""
    _check_family(n, k, surjective=False)
    rng, b = random.Random(seed), k.bit_length()
    w = -(-b // 32)
    kept: list[int] = []
    while len(kept) < n:
        d = n - len(kept)  # each draw keeps at most one color
        words = np.frombuffer(rng.getrandbits(32 * w * d).to_bytes(4 * w * d, "little"), "<u4").reshape(d, w)
        draws = words[:, -1].astype(object if w > 1 else np.uint32) >> (32 * w - b)
        for i in range(w - 2, -1, -1):  # a draw over 32 bits, in Python ints
            draws = draws << 32 | words[:, i].astype(object)
        kept += (draws[draws < k] + 1).tolist()
    return Coloring(domain, n, k, tuple(kept))


def coloring_dict(c: Coloring) -> dict:
    """The JSON object of a coloring: {"domain", "n", "k", "colors"}."""
    return {"domain": c.domain.value, "n": c.n, "k": c.k, "colors": list(c.colors)}


def serialize_coloring(c: Coloring) -> str:
    """Canonical one-line JSON for a coloring; inverse of parse_coloring."""
    return json.dumps(coloring_dict(c), separators=(",", ":"))


def parse_coloring(text: str) -> Coloring:
    """Parse the JSON coloring format.

    Expected shape: {"domain":"interval"|"cyclic","n":int,"k":int,"colors":[int...]}.
    Raises ValueError naming the offending field or index.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ValueError("malformed JSON: expected an object")
    for key in ("domain", "n", "k", "colors"):
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
    try:
        domain = Domain(obj["domain"])
    except ValueError:
        raise ValueError(f"unknown domain {obj['domain']!r}") from None
    colors = obj["colors"]
    if not isinstance(colors, list):
        raise ValueError("field colors must be a list")
    return Coloring(domain, obj["n"], obj["k"], tuple(colors))


def parse_coloring_lines(text: str) -> list[Coloring]:
    """Parse one coloring per non-empty line (JSON-lines batches)."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(parse_coloring(line))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    if not out:
        raise ValueError("no colorings found")
    return out
