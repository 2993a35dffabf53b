"""The limits that the README's CLI section quotes, recomputed from the
constants and checks that enforce them, so the text cannot drift from the code."""
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sidonrainbow import cli, counting, enumeration, search
from sidonrainbow.core import Domain

README = Path(__file__).resolve().parent.parent / "README.md"
# the prose after the CLI block, its line breaks read as spaces
TEXT = " ".join(README.read_text(encoding="utf-8").split("## CLI", 1)[1].split())


def largest(ok, lo: int) -> int:
    """The largest n >= lo with ok(n), for ok true at lo and false from some n on."""
    hi = lo + 1
    while ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def admits(check, *args) -> bool:
    try:
        check(*args)
    except (ValueError, search.BudgetExceededError):
        return False
    return True


def quoted(*phrases: str) -> None:
    for phrase in phrases:
        assert phrase in TEXT, phrase


def test_scan_ceiling():
    n = largest(lambda n: enumeration.total_quads_formula(n) <= enumeration.SCAN_CEILING, 1)
    quoted(f"more than {enumeration.SCAN_CEILING:,} quads", f"(n = {n} at most)")


def test_sums_ceiling():
    single = largest(lambda n: admits(enumeration._check_sum_range, range(n, n + 1)), 1)
    top = largest(lambda b: admits(enumeration._check_sum_range, range(4, b + 1)), 4)
    quoted(
        f"at most {enumeration.SUMS_CEILING:,} pair sums",
        f"any single n up to {single:,}",
        f"a range up to `4..{top}`",
    )


def test_exhaustive_budget():
    n = largest(lambda n: admits(search._check_budget, n, 4), 4)
    quoted(f"more than {search.MAX_STATES:,} canonical colorings", f"admits n = {n} at k = 4", f"past n = {n} it")


def test_fast_counter_headroom():
    assert counting._MAX_N == largest(lambda n: n**3 <= 2**63 - 1, 1)
    quoted(f"n = {counting._MAX_N:,} (`counting._MAX_N`")


class Started(Exception):
    pass


def test_class_ceiling(monkeypatch):
    # the ceiling alone decides: a count that would reach an engine raises Started
    def start(*_):
        raise Started

    monkeypatch.setattr(counting, "_pair_histograms", start)
    monkeypatch.setattr(counting, "_roots", start)

    def admitted(n, k):
        # the mod-k coloring's colors, without building a Coloring of n boxed ints
        mod = SimpleNamespace(domain=Domain.INTERVAL, n=n, k=k, colors=np.arange(n) % k + 1)
        with pytest.raises((Started, ValueError)) as e:
            counting.count_rainbow_fast(mod)
        return e.type is Started

    assert admitted(counting._MAX_N, 4)
    for n, k in ((20000, 420), (10**5, 84), (10**6, 8)):
        assert largest(lambda m: admitted(n, m), 4) == k == counting.CLASS_N_CEILING // n
    quoted(
        f"come to more than {counting.CLASS_N_CEILING:,} (`counting.CLASS_N_CEILING`)",
        "four colors pass up to n = 2,097,151, and eight at n = 10^6",
    )


def test_trials_ceiling():
    quoted(f"`--trials` is above {cli.MAX_TRIALS:,} (`cli.MAX_TRIALS`)")


def test_sweep_ceiling(monkeypatch):
    # every n is checked before the first coloring is built
    def start(*_):
        raise Started

    monkeypatch.setattr(cli, "mod_coloring", start)
    monkeypatch.setattr(cli, "random_coloring", start)

    def admitted(ns, coloring="random", k=4):
        argv = ["sweep", "--k", str(k), "--n-list", ",".join(map(str, ns)), "--coloring", coloring, "--out", "-"]
        try:
            assert cli.main(argv) == 1  # refused, its message on stderr
        except Started:
            return True
        return False

    assert largest(lambda total: admitted([total]), 1) == cli.MAX_SWEEP_N
    assert largest(lambda n: admitted([1, n, n]), 1) == (cli.MAX_SWEEP_N - 1) // 2
    assert not admitted([4, counting._MAX_N + 1]) and not admitted([0])
    assert admitted([8], "mod", 8) and not admitted([8, 7], "mod", 8)
    # min(k, n) classes at each n, against the fast counters' class ceiling
    assert admitted([4, 20000], "random", 420) and not admitted([4, 20000], "random", 421)
    assert admitted([100, 1000], "random", 8400) and not admitted([100, 8401], "random", 8400)
    quoted(
        "`sweep` checks its whole `--n-list` before the first count",
        f"at most {counting._MAX_N:,}, and the list sums to at most {cli.MAX_SWEEP_N:,} (`cli.MAX_SWEEP_N`)",
        "it also checks min(k, n)·n against the class ceiling for every n",
    )


def test_climb_work_ceiling(monkeypatch):
    # the work formula alone decides: a climb that would start raises Started
    def start(*_):
        raise Started

    monkeypatch.setattr(search, "mod_coloring", start)

    def admitted(n, k, restarts, moves):
        with pytest.raises((Started, ValueError)) as e:
            search.local_search(n, k, 0, restarts, moves)
        return e.type is Started

    example = (8 + 10000) * (4 * 40**2 + 2**15)
    assert admitted(40, 4, 8, 10000)
    moves = largest(lambda m: admitted(40, 4, 8, m), 10000)
    assert (8 + moves) * (4 * 40**2 + 2**15) <= search.MAX_CLIMB_WORK < (9 + moves) * (4 * 40**2 + 2**15)
    top = largest(lambda n: admitted(n, 4, 1, 0), 4)
    quoted(
        f"(restarts + moves)·(k·n^2 + 2^15) is more than {search.MAX_CLIMB_WORK:,} steps (`search.MAX_CLIMB_WORK`)",
        f"the n = 40 example above plans {example:,} steps",
        f"one start with no moves at k = 4 is admitted up to n = {top:,}",
    )
