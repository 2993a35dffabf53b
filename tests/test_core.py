"""Colorings, quads, and the JSON round trip."""
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sidonrainbow import counting
from sidonrainbow.core import (
    ClassBreakdown,
    Coloring,
    Domain,
    ModularSidonQuad,
    SidonQuad,
    make_quad,
    mod_coloring,
    parse_coloring,
    parse_coloring_lines,
    random_coloring,
    serialize_coloring,
)


def classes(c):
    return {color: x.tolist() for color, x in counting._classes(c).items()}


def test_coloring_basic():
    c = Coloring(Domain.INTERVAL, 5, 3, (1, 2, 3, 1, 2))
    assert classes(c) == {1: [1, 4], 2: [2, 5], 3: [3]}
    # colors that do not occur have no class
    assert classes(Coloring(Domain.INTERVAL, 4, 10**9, (7, 2, 7, 2))) == {7: [1, 3], 2: [2, 4]}
    # colors past int64 stay distinct
    big = Coloring(Domain.INTERVAL, 3, 2**64, (2**63 + 1, 2**63, 2**63 + 1))
    assert classes(big) == {2**63: [2], 2**63 + 1: [1, 3]}


def test_coloring_rejects_bad_shapes():
    with pytest.raises(ValueError, match="length mismatch"):
        Coloring(Domain.INTERVAL, 4, 2, (1, 2, 1))
    with pytest.raises(ValueError, match="color out of range at index 2"):
        Coloring(Domain.INTERVAL, 3, 2, (1, 2, 3))
    with pytest.raises(ValueError, match="color out of range at index 0"):
        Coloring(Domain.INTERVAL, 2, 2, (True, 1))
    with pytest.raises(ValueError):
        Coloring(Domain.INTERVAL, 0, 1, ())
    for n, k in ((True, 1), (1, True), ("1", 1)):
        with pytest.raises(ValueError, match="must be integers"):
            Coloring(Domain.INTERVAL, n, k, (1,))


@pytest.mark.parametrize("bad", [True, 1.0, 0, 5])
def test_coloring_names_a_bad_last_color(bad):
    # the failure path reports the same index as a per-element check would
    colors = [1, 2, 3, 4] * 2500
    colors[-1] = bad
    with pytest.raises(ValueError, match="^color out of range at index 9999$"):
        Coloring(Domain.INTERVAL, 10**4, 4, tuple(colors))
    text = json.dumps({"domain": "interval", "n": 10**4, "k": 4, "colors": colors})
    with pytest.raises(ValueError, match="^color out of range at index 9999$"):
        parse_coloring(text)


def test_mod_coloring_pattern():
    c = mod_coloring(10, 4)
    assert c.colors == (1, 2, 3, 4, 1, 2, 3, 4, 1, 2)
    with pytest.raises(ValueError):
        mod_coloring(3, 4)


def test_random_coloring_deterministic():
    a = random_coloring(50, 5, seed=7)
    b = random_coloring(50, 5, seed=7)
    assert a == b
    assert a != random_coloring(50, 5, seed=8)
    assert all(1 <= col <= 5 for col in a.colors)


def randint_colors(n, k, seed):
    """Reference: the colors random.Random(seed).randint(1, k) draws one at a time."""
    rng = random.Random(seed)
    return tuple(rng.randint(1, k) for _ in range(n))


# one to three 32-bit words per draw, with few and with many draws rejected
DRAW_WIDTHS = [1, 2, 3, 5, 42, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**64 + 7]


@pytest.mark.parametrize("k", DRAW_WIDTHS)
@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_random_coloring_is_the_randint_stream(k, seed):
    for n in (1, 2, 17, 1000):
        c = random_coloring(n, k, seed)
        assert c.colors == randint_colors(n, k, seed)
        assert set(map(type, c.colors)) == {int}


@given(st.integers(1, 3000), st.integers(1, 2**33), st.integers(0, 2**64))
def test_random_coloring_matches_randint(n, k, seed):
    assert random_coloring(n, k, seed).colors == randint_colors(n, k, seed)


def test_quad_validation():
    q = SidonQuad(5, 4, 2, 1)
    assert (q.x1, q.x2, q.x3, q.x4) == (5, 4, 2, 1)
    with pytest.raises(ValueError):
        SidonQuad(5, 2, 4, 1)
    with pytest.raises(ValueError):
        SidonQuad(6, 4, 2, 1)


def test_make_quad():
    assert make_quad(2, 5, 1, 4, 10) == SidonQuad(5, 4, 2, 1)
    assert make_quad(4, 3, 2, 1, 10) == SidonQuad(4, 3, 2, 1)
    assert make_quad(1, 2, 3, 5, 10) is None  # 5+1 != 3+2
    assert make_quad(1, 2, 2, 3, 10) is None
    with pytest.raises(ValueError):
        make_quad(0, 2, 3, 4, 10)
    with pytest.raises(ValueError):
        make_quad(1, 2, 3, 11, 10)


def test_modular_quad_validation():
    q = ModularSidonQuad((1, 2), (3, 4), 4)
    # same 4-set, different pairing, also canonical
    q2 = ModularSidonQuad((1, 4), (2, 3), 4)
    assert q != q2
    with pytest.raises(ValueError, match="canonical"):
        ModularSidonQuad((3, 4), (1, 2), 4)
    with pytest.raises(ValueError, match="canonical"):
        ModularSidonQuad((2, 1), (3, 4), 4)
    with pytest.raises(ValueError, match="distinct"):
        ModularSidonQuad((1, 2), (2, 3), 8)
    with pytest.raises(ValueError, match="mod"):
        ModularSidonQuad((1, 2), (3, 5), 9)
    with pytest.raises(ValueError, match="outside"):
        ModularSidonQuad((1, 2), (3, 9), 8)
    with pytest.raises(ValueError, match="^modulus must be >= 1$"):
        ModularSidonQuad((1, 2), (3, 4), 0)


def test_breakdown_total():
    bd = ClassBreakdown(rainbow=3, monochromatic=1, two_colored=4, three_colored=2)
    assert bd.total == 10


def test_serialize_parse_round_trip():
    c = Coloring(Domain.CYCLIC, 4, 2, (1, 2, 2, 1))
    text = serialize_coloring(c)
    assert json.loads(text) == {"domain": "cyclic", "n": 4, "k": 2, "colors": [1, 2, 2, 1]}
    assert parse_coloring(text) == c


@given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 999))
def test_round_trip_random(n, k, seed):
    c = random_coloring(n, k, seed)
    assert parse_coloring(serialize_coloring(c)) == c


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "malformed JSON"),
        ("[1,2]", "malformed JSON"),
        ('{"domain":"interval","n":2,"k":1}', "missing field 'colors'"),
        ('{"domain":"ring","n":1,"k":1,"colors":[1]}', "unknown domain"),
        ('{"domain":"interval","n":3,"k":1,"colors":[1,1]}', "length mismatch: expected 3 colors, got 2"),
        ('{"domain":"interval","n":2,"k":1,"colors":[1,2]}', "color out of range at index 1"),
        ('{"domain":"interval","n":2,"k":1,"colors":[1,true]}', "color out of range at index 1"),
        ('{"domain":"interval","n":"2","k":1,"colors":[1,1]}', "must be integers"),
        ('{"domain":"interval","n":true,"k":1,"colors":[1]}', "must be integers"),
        ('{"domain":"interval","n":1,"k":true,"colors":[1]}', "must be integers"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_coloring(text)


def test_parse_lines():
    c1 = mod_coloring(4, 2)
    c2 = mod_coloring(5, 2)
    text = serialize_coloring(c1) + "\n\n" + serialize_coloring(c2) + "\n"
    assert parse_coloring_lines(text) == [c1, c2]
    with pytest.raises(ValueError, match="line 2"):
        parse_coloring_lines(serialize_coloring(c1) + "\nbogus\n")
    with pytest.raises(ValueError, match="no colorings"):
        parse_coloring_lines("\n\n")
