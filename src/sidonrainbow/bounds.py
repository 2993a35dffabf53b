"""Bound formulas evaluated as exact rational leading terms.

Error terms of order n^2 are carried as symbolic flags, never as numbers: the
source bounds do not come with explicit constants, so any finite-n comparison
against them is indicative only. The two bounds that hold absolutely (the
trivial total-count ceiling and the cyclic 3n^3/64 ceiling for four colors)
carry no flag and may be asserted.

Two parity constants are easy to conflate: 0 or 1/8 in the exact total
count of Sidon 4-sets (n even or odd, in total_quads_formula), and 1/2 or 3/8
in |S(k)| (k even or odd, in modular_count_formula), which the lower-bound
coefficient reads.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .enumeration import modular_count_formula, total_quads_formula

FLAG_UPPER = "+O_k(n^2)"
FLAG_LOWER = "-O_k(n^2)"


def lb_coefficient(k: int) -> Fraction:
    """Leading coefficient 2|S(k)|/(3k^3) of the constructive lower bound: the
    density of the mod-k construction, 1/12 - 1/(3k) + O(1/k^2)."""
    return Fraction(2 * modular_count_formula(k), 3 * k**3)


def ub_general_coefficient(k: int) -> Fraction:
    """Leading coefficient 1/12 - 1/(24k) of the general upper bound."""
    return Fraction(1, 12) - Fraction(1, 24 * k)


@dataclass(frozen=True)
class BoundsReport:
    """Every bound formula for one (n, k), with exact rationals throughout.

    Fields holding leading terms of flagged bounds pair with *_flag strings;
    ub_trivial, cyclic_ub_k4 and cyclic_lb_k4 are absolute (no hidden terms).
    """

    n: int
    k: int
    total_exact: int
    ub_trivial: Fraction
    ub_general: Fraction
    ub_general_flag: str
    ub_k4: Optional[Fraction]
    ub_k4_flag: Optional[str]
    lb_construction: Fraction
    lb_construction_flag: str
    cyclic_ub_k4: Optional[Fraction]
    cyclic_lb_k4: Optional[Fraction]
    s_k: int


def bounds_report(n: int, k: int) -> BoundsReport:
    """Evaluate all bound formulas for n >= k >= 4."""
    if k < 4 or n < k:
        raise ValueError(f"need n >= k >= 4, got n={n}, k={k}")
    n3 = Fraction(n) ** 3
    is4 = k == 4
    return BoundsReport(
        n=n,
        k=k,
        total_exact=total_quads_formula(n),
        ub_trivial=Fraction(n**3, 12) - Fraction(3 * n**2, 8) + Fraction(5 * n, 12),
        ub_general=ub_general_coefficient(k) * n3,
        ub_general_flag=FLAG_UPPER,
        ub_k4=Fraction(3 * n**3, 96) if is4 else None,
        ub_k4_flag="+O(n^2)" if is4 else None,
        lb_construction=lb_coefficient(k) * n3,
        lb_construction_flag=FLAG_LOWER,
        cyclic_ub_k4=Fraction(3 * n**3, 64) if is4 else None,
        cyclic_lb_k4=Fraction(n**3, 32) if is4 and n % 4 == 0 else None,
        s_k=modular_count_formula(k),
    )


def _rendered(r: BoundsReport, show: Callable[[object], str]) -> Iterator[tuple[str, str]]:
    """(name, show(value)) for each field in field order. str() refuses an int
    of more than sys.get_int_max_str_digits() digits; the ValueError then names
    the field, not that setting."""
    for f in fields(r):
        try:
            yield f.name, show(getattr(r, f.name))
        except ValueError:
            raise ValueError(
                f"{f.name} has more than {sys.get_int_max_str_digits()} digits, too many to print"
            ) from None


def _text(x) -> str:
    if not isinstance(x, Fraction):
        return "-" if x is None else str(x)
    try:
        return f"{x} ({float(x):.6g})"
    except OverflowError:  # past the float range the exact value stands alone
        return str(x)


def report_to_text(r: BoundsReport) -> str:
    """One row per field in field order; a *_flag field joins its value's row."""
    rows = {}
    for name, text in _rendered(r, _text):
        if not name.endswith("_flag"):
            rows[name] = text
        elif text != "-":
            rows[name.removesuffix("_flag")] += f" {text}"
    width = max(map(len, rows))
    return "\n".join(f"{name:<{width}}  {val}" for name, val in rows.items())


def report_to_json(r: BoundsReport) -> str:
    """One-line JSON object keyed in field order; fractions as "p/q", None as null."""
    values = _rendered(r, lambda x: json.dumps(f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else x))
    return "{" + ",".join(f'"{name}":{value}' for name, value in values) + "}"
