"""Bound formula evaluation and report rendering."""
import json
from fractions import Fraction

import pytest

from sidonrainbow.bounds import (
    FLAG_LOWER,
    FLAG_UPPER,
    bounds_report,
    lb_coefficient,
    report_to_json,
    report_to_text,
    ub_general_coefficient,
)
from sidonrainbow.counting import count_rainbow_fast, count_rainbow_naive
from sidonrainbow.core import mod_coloring, random_coloring
from sidonrainbow.enumeration import enumerate_modular_quads, total_quads_formula


def test_theta_parity():
    # theta = k^2 (c_k - 1/12 + 1/(3k)) is 1/3 for even k and 1/4 for odd k
    def theta(k):
        return (lb_coefficient(k) - Fraction(1, 12) + Fraction(1, 3 * k)) * k**2

    assert theta(8) == Fraction(1, 3) and theta(9) == Fraction(1, 4)


def test_lb_coefficient_is_modular_density():
    # the construction realizes 2|S(k)| of the 3k^3 split patterns per sum,
    # |S(k)| counted here by the direct residue scan, not the closed form
    for k in range(4, 41):
        assert lb_coefficient(k) == Fraction(2 * len(enumerate_modular_quads(k)), 3 * k**3)


def test_lb_coefficient_is_the_papers_expansion():
    # 2|S(k)|/(3k^3), the mod-k construction's density, against the paper's
    # 1/12 - 1/(3k) + theta/k^2 with theta = 1/3 for even k and 1/4 for odd k
    for k in range(1, 201):
        theta = Fraction(1, 3) if k % 2 == 0 else Fraction(1, 4)
        assert lb_coefficient(k) == Fraction(1, 12) - Fraction(1, 3 * k) + theta / k**2


def test_coefficient_spots():
    assert ub_general_coefficient(4) == Fraction(7, 96)
    assert lb_coefficient(4) == Fraction(1, 48)
    assert lb_coefficient(5) == Fraction(2, 75)


def test_total_matches_trivial_ceiling_even_n():
    # for even n the ceiling formula reproduces the exact total
    r = bounds_report(96, 4)
    assert r.ub_trivial == r.total_exact == total_quads_formula(96)
    r9 = bounds_report(99, 4)
    assert r9.ub_trivial - total_quads_formula(99) == Fraction(1, 8)


def test_report_k4_fields():
    r = bounds_report(96, 4)
    assert r.ub_k4 == Fraction(3 * 96**3, 96) == 27648
    assert r.lb_construction == Fraction(2 * 96**3, 96) == 18432
    assert r.cyclic_ub_k4 == Fraction(3 * 96**3, 64) == 41472
    assert r.cyclic_lb_k4 == Fraction(96**3, 32) == 27648
    assert r.s_k == 2
    assert r.ub_general_flag == FLAG_UPPER
    assert r.lb_construction_flag == FLAG_LOWER


def test_report_k5_fields():
    r = bounds_report(100, 5)
    assert r.ub_k4 is None and r.ub_k4_flag is None
    assert r.cyclic_ub_k4 is None and r.cyclic_lb_k4 is None
    assert r.s_k == 5


def test_cyclic_lb_requires_divisibility():
    assert bounds_report(98, 4).cyclic_lb_k4 is None
    assert bounds_report(100, 4).cyclic_lb_k4 == Fraction(100**3, 32)


def test_report_rejects_bad_args():
    with pytest.raises(ValueError):
        bounds_report(3, 4)
    with pytest.raises(ValueError):
        bounds_report(10, 3)


def test_text_rendering():
    text = report_to_text(bounds_report(96, 4))
    lines = text.splitlines()
    assert lines[0].startswith("n ")
    assert any(line.startswith("ub_k4") and "27648" in line and "+O(n^2)" in line for line in lines)
    assert any("-" == line.split()[-1] for line in report_to_text(bounds_report(100, 5)).splitlines())
    # rationals render as p/q with a decimal hint
    assert "617793/8 (77224.1)" in report_to_text(bounds_report(99, 4))


def test_json_rendering():
    obj = json.loads(report_to_json(bounds_report(96, 4)))
    assert obj["ub_k4"] == "27648/1"
    assert obj["lb_construction"] == "18432/1"
    assert obj["s_k"] == 2
    obj5 = json.loads(report_to_json(bounds_report(100, 5)))
    assert obj5["ub_k4"] is None


def test_measured_counts_respect_trivial_ceiling():
    for seed in range(5):
        c = random_coloring(40, 4, seed)
        assert count_rainbow_naive(c).rainbow <= bounds_report(40, 4).ub_trivial


def test_construction_report():
    # the mod-4 coloring of [48] against its limit coefficient 2|S(4)| / (3 * 4^3) = 1/48
    rainbow = count_rainbow_fast(mod_coloring(48, 4))
    assert rainbow == 2300
    assert Fraction(rainbow, 48**3) < lb_coefficient(4) == Fraction(1, 48)


def test_construction_ratio_climbs():
    ratios = [Fraction(count_rainbow_fast(mod_coloring(n, 5)), n**3) for n in (25, 50, 100)]
    assert ratios == sorted(ratios)
    assert all(r < lb_coefficient(5) for r in ratios)
