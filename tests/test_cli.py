"""End-to-end CLI behavior: output shapes, determinism, exit codes."""
import csv
import json
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sidonrainbow import cli, counting, enumeration, repfn
from sidonrainbow.cli import main
from sidonrainbow.core import Domain, mod_coloring, random_coloring, serialize_coloring
from sidonrainbow.enumeration import SCAN_CEILING, enumerate_quads, total_quads_formula


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def coloring_file(tmp_path, *colorings):
    path = tmp_path / "colorings.jsonl"
    path.write_text("".join(serialize_coloring(c) + "\n" for c in colorings))
    return str(path)


def test_total_single(capsys):
    rc, out, _ = run(capsys, "total", "--n", "5")
    assert rc == 0 and out == "3 3 3 OK\n"
    rc, out, _ = run(capsys, "total", "--n", "4")
    assert rc == 0 and out == "1 1 1 OK\n"


def test_total_range(capsys):
    rc, out, _ = run(capsys, "total", "--range", "4..60")
    lines = out.splitlines()
    assert rc == 0
    assert len(lines) == 57
    assert all(line.endswith("OK") for line in lines)
    assert lines[0] == "n=4 1 1 1 OK"
    # int() reads every Unicode decimal digit
    assert run(capsys, "total", "--range", "4..٦") == (0, "n=4 1 1 1 OK\nn=5 3 3 3 OK\nn=6 7 7 7 OK\n", "")


def test_total_large_skips_enumeration(capsys):
    rc, out, _ = run(capsys, "total", "--n", "200")
    assert rc == 0
    assert len(out.split()) == 3  # formula, sums oracle, OK
    rc, out, _ = run(capsys, "total", "--n", "70", "--brute")
    assert rc == 0
    assert len(out.split()) == 4


def test_total_bad_args(capsys):
    assert run(capsys, "total", "--range", "9..2")[0] == 1
    assert run(capsys, "total", "--range", "abc")[0] == 1
    assert run(capsys, "total")[0] == 1


def test_rainbow_all_methods(capsys, tmp_path):
    path = coloring_file(tmp_path, mod_coloring(8, 4), mod_coloring(8, 4, Domain.CYCLIC))
    rc, out, _ = run(capsys, "rainbow", "--coloring", path, "--method", "all")
    assert rc == 0
    assert out == "10 10 10 OK\n16 16 OK\n"


def test_total_prints_mismatch_when_a_route_is_off(capsys, monkeypatch):
    real = cli.count_quads_by_sums
    monkeypatch.setattr(cli, "count_quads_by_sums", lambda n: real(n) + (n == 5))
    rc, out, _ = run(capsys, "total", "--range", "4..6")
    assert rc == 2 and out == "n=4 1 1 1 OK\nn=5 3 4 3 MISMATCH\nn=6 7 7 7 OK\n"
    rc, out, _ = run(capsys, "total", "--n", "5")
    assert rc == 2 and out == "3 4 3 MISMATCH\n"


@pytest.mark.parametrize(
    "route, want",
    [
        ("count_rainbow_fast", "10 11 10 MISMATCH\n16 16 OK\n"),
        ("count_rainbow_cyclic_fast", "10 10 10 OK\n16 17 MISMATCH\n"),
        ("rainbow_via_energy", "10 10 11 MISMATCH\n16 16 OK\n"),
    ],
)
def test_rainbow_all_prints_mismatch_when_a_route_is_off(capsys, monkeypatch, tmp_path, route, want):
    real = getattr(cli, route)
    monkeypatch.setattr(cli, route, lambda c: real(c) + 1)
    path = coloring_file(tmp_path, mod_coloring(8, 4), mod_coloring(8, 4, Domain.CYCLIC))
    rc, out, _ = run(capsys, "rainbow", "--coloring", path, "--method", "all")
    assert rc == 2 and out == want


def test_energy_method_counts_a_large_coloring(capsys, tmp_path):
    # the mod-4 coloring of n = 10^5, which the fast counter also counts as 20833333325000
    path = coloring_file(tmp_path, mod_coloring(10**5, 4))
    start = time.perf_counter()
    assert run(capsys, "rainbow", "--coloring", path, "--method", "energy") == (0, "20833333325000\n", "")
    assert time.perf_counter() - start < 2


def test_rainbow_single_method(capsys, tmp_path):
    path = coloring_file(tmp_path, mod_coloring(12, 5))
    rc, out, _ = run(capsys, "rainbow", "--coloring", path, "--method", "fast")
    assert rc == 0
    (value,) = out.split()
    rc2, out2, _ = run(capsys, "rainbow", "--coloring", path, "--method", "naive")
    assert rc2 == 0 and out2.split() == [value]


def test_rainbow_constant_coloring(capsys, tmp_path):
    from sidonrainbow.core import Coloring

    path = coloring_file(tmp_path, Coloring(Domain.INTERVAL, 20, 4, (3,) * 20))
    rc, out, _ = run(capsys, "rainbow", "--coloring", path, "--method", "all")
    assert rc == 0
    assert out == "0 0 0 OK\n"


def test_rainbow_errors(capsys, tmp_path):
    assert run(capsys, "rainbow", "--coloring", str(tmp_path / "nope.jsonl"))[0] == 1
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    assert run(capsys, "rainbow", "--coloring", str(bad))[0] == 1
    k5 = coloring_file(tmp_path, mod_coloring(10, 5))
    assert run(capsys, "rainbow", "--coloring", k5, "--method", "energy")[0] == 1
    cyc = coloring_file(tmp_path, mod_coloring(8, 4, Domain.CYCLIC))
    assert run(capsys, "rainbow", "--coloring", cyc, "--method", "energy")[0] == 1


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("method", ["naive", "fast", "energy", "all"])
@pytest.mark.parametrize("domain", list(Domain))
def test_rainbow_matches_the_counters_called_directly(capsys, tmp_path, domain, method, k):
    colorings = [random_coloring(n, k, n, domain) for n in (9, 23)]
    path = coloring_file(tmp_path, *colorings)
    if domain is Domain.CYCLIC:
        routes = {"naive": counting.count_rainbow_cyclic_naive, "fast": counting.count_rainbow_cyclic_fast}
    else:
        routes = {"naive": lambda c: counting.count_rainbow_naive(c).rainbow, "fast": counting.count_rainbow_fast}
        if method == "energy" or k == 4:
            routes["energy"] = counting.rainbow_via_energy
    if method == "energy" and domain is Domain.CYCLIC:
        want = (1, "", "energy method applies to interval colorings only\n")
    elif method == "energy" and k != 4:
        want = (1, "", f"energy route needs exactly 4 colors, got k={k}\n")
    elif method == "all":
        want = (0, "".join(" ".join(str(f(c)) for f in routes.values()) + " OK\n" for c in colorings), "")
    else:
        want = (0, "".join(f"{routes[method](c)}\n" for c in colorings), "")
    assert run(capsys, "rainbow", "--coloring", path, "--method", method) == want


def test_rainbow_refuses_cyclic_energy_before_any_count(capsys, monkeypatch, tmp_path):
    for name in ("count_rainbow_cyclic_naive", "count_rainbow_cyclic_fast", "count_rainbow_naive",
                 "count_rainbow_fast", "rainbow_via_energy"):
        monkeypatch.setattr(cli, name, lambda c: pytest.fail("a count ran"))
    path = coloring_file(tmp_path, mod_coloring(8, 4, Domain.CYCLIC))
    assert run(capsys, "rainbow", "--coloring", path, "--method", "energy") == (
        1, "", "energy method applies to interval colorings only\n",
    )


def test_bounds_text_and_json(capsys):
    rc, out, _ = run(capsys, "bounds", "--n", "96", "--k", "4")
    assert rc == 0
    assert "ub_k4" in out and "27648" in out
    rc, out, _ = run(capsys, "bounds", "--n", "100", "--k", "5", "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["s_k"] == 5 and obj["ub_k4"] is None


def test_bounds_past_the_float_range(capsys):
    # n^3/12 is past the float range: each exact value stands without its approximation
    n = 10**111
    rc, out, err = run(capsys, "bounds", "--n", str(n), "--k", "4")
    rows = dict(line.split(None, 1) for line in out.splitlines())
    assert (rc, err) == (0, "")
    assert rows["ub_trivial"] == rows["total_exact"] == str(total_quads_formula(n))
    assert rows["ub_k4"] == f"{3 * n**3 // 96} +O(n^2)"
    assert rows["lb_construction"] == f"{Fraction(n**3, 48)} -O_k(n^2)" and rows["s_k"] == "2"
    assert json.loads(run(capsys, "bounds", "--n", str(n), "--k", "4", "--json")[1])["ub_k4"] == f"{3 * n**3 // 96}/1"


@pytest.mark.parametrize("json_flag", ((), ("--json",)))
def test_bounds_refuses_values_too_long_to_print(capsys, json_flag):
    # n^3/12 has more digits than str() prints; the message names the field, not Python's setting
    n = str(10**1500)
    assert run(capsys, "bounds", "--n", n, "--k", "4", *json_flag) == (
        1, "", f"total_exact has more than {sys.get_int_max_str_digits()} digits, too many to print\n",
    )


def test_bounds_bad_args(capsys):
    assert run(capsys, "bounds", "--n", "3", "--k", "4")[0] == 1
    assert run(capsys, "bounds", "--n", "10", "--k", "3")[0] == 1


# the smallest n whose quads exceed the scan ceiling
OVER_CEILING = next(n for n in range(4, 10**4) if total_quads_formula(n) > SCAN_CEILING)


def test_total_brute_checks_scan_ceiling(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_quads", lambda n: pytest.fail("enumeration started"))
    rc, out, err = run(capsys, "total", "--n", str(OVER_CEILING), "--brute")
    assert rc == 1 and out == ""
    assert f"{total_quads_formula(OVER_CEILING)} quads" in err and str(SCAN_CEILING) in err


def test_total_range_checks_one_ceiling(capsys, monkeypatch):
    # every n of 4..400 is under the ceiling alone, but not all of them together
    assert total_quads_formula(400) <= SCAN_CEILING
    quads = sum(total_quads_formula(n) for n in range(4, 401))
    with monkeypatch.context() as m:
        m.setattr(cli, "enumerate_quads", lambda n: pytest.fail("enumeration started"))
        rc, out, err = run(capsys, "total", "--range", "4..400", "--brute")
    assert rc == 1 and out == ""
    assert f"{quads} quads" in err and str(SCAN_CEILING) in err
    # without --brute only n <= 60 is enumerated
    rc, out, _ = run(capsys, "total", "--range", "4..1000")
    assert rc == 0 and len(out.splitlines()) == 997
    assert out.splitlines()[-1] == f"n=1000 {total_quads_formula(1000)} {total_quads_formula(1000)} OK"


def test_total_range_checks_the_sum_ceiling(capsys, monkeypatch):
    # a single n up to 5000001 fits the ceiling; 4..3163 is the widest range from 4
    enumeration._check_sum_range(range(5000001, 5000002))
    enumeration._check_sum_range(range(4, 3164))
    monkeypatch.setattr(cli, "count_quads_by_sums", lambda n: pytest.fail("sum buckets counted"))
    for hi in (3164, 200000):
        sums = sum(2 * n - 3 for n in range(4, hi + 1))  # pair sums l = 3..2n-1 per n
        rc, out, err = run(capsys, "total", "--range", f"4..{hi}")
        assert rc == 1 and out == ""
        assert f"{sums} pair sums" in err and str(enumeration.SUMS_CEILING) in err


# each fails one check: descending order, balance, range [1, 9]
@pytest.mark.parametrize("bad", [(6, 4, 5, 3), (7, 5, 4, 3), (10, 6, 5, 1), (5, 3, 2, 0)])
def test_total_fails_on_a_bad_enumerated_quad(capsys, monkeypatch, bad):
    real = cli.enumerate_quads

    def one_bad(n):
        for q in real(n):
            hit = (q == (6, 5, 4, 3)).all(axis=1)
            if n == 9 and hit.any():
                q = q.copy()
                q[hit] = bad
            yield q

    monkeypatch.setattr(cli, "enumerate_quads", one_bad)
    rc, _, err = run(capsys, "total", "--n", "9")
    assert rc == 1 and str(bad) in err
    rc, out, _ = run(capsys, "total", "--n", "8")
    assert rc == 0 and out == "22 22 22 OK\n"


def corrupt(monkeypatch, n, rows):
    """Make cli's enumerate_quads(n) yield a wrong row (x1, x2, x3, x4) at each
    (pair sum, index among that sum's rows) key of `rows`; a block may hold
    several sums."""
    def bad_rows(m):
        for q in enumerate_quads(m):
            sums = q[:, 0] + q[:, 3]
            for (sum_, i), row in rows.items():
                at = np.flatnonzero(sums == sum_)
                if m == n and len(at):
                    q = q.copy()
                    q[at[i]] = row
            yield q

    monkeypatch.setattr(cli, "enumerate_quads", bad_rows)


def test_total_names_a_bad_row_inside_a_packed_block(capsys, monkeypatch):
    # at n = 20 every pair sum fits one block: the bad rows sit in the 17th and
    # 22nd sums, neither at its sum's first row, and the first is named
    assert total_quads_formula(20) <= enumeration._BLOCK_ROWS
    assert len(list(enumerate_quads(20))) == 1
    corrupt(monkeypatch, 20, {(21, 3): (9, 8, 7, 5), (26, 2): (20, 1, 4, 5)})
    rc, out, err = run(capsys, "total", "--n", "20")
    assert rc == 1 and out == ""
    assert "(9, 8, 7, 5)" in err and "(20, 1, 4, 5)" not in err


def test_total_names_a_bad_row_in_a_bucket_larger_than_a_block(capsys, monkeypatch):
    # at n = 100 the sum 100 has C(49, 2) = 1176 rows, more than a block, and
    # makes a block of its own, checked in two slices
    assert 49 * 48 // 2 > enumeration._BLOCK_ROWS
    corrupt(monkeypatch, 100, {(100, 1100): (60, 41, 30, 30), (101, 5): (1, 2, 3, 4)})
    rc, _, err = run(capsys, "total", "--n", "100", "--brute")
    assert rc == 1 and "(60, 41, 30, 30)" in err and "(1, 2, 3, 4)" not in err
    # and in the block after it
    corrupt(monkeypatch, 100, {(101, 5): (1, 2, 3, 4)})
    rc, _, err = run(capsys, "total", "--n", "100", "--brute")
    assert rc == 1 and "(1, 2, 3, 4)" in err


@pytest.mark.parametrize("argv", [("--n", "5000002"), ("--range", "5000000..5000002")])
def test_total_checks_the_sum_ceiling_first(capsys, monkeypatch, argv):
    monkeypatch.setattr(enumeration, "np", None)  # the check comes before any array
    monkeypatch.setattr(cli, "np", None)
    rc, out, err = run(capsys, "total", *argv)
    assert rc == 1 and out == ""
    assert err.endswith(f"pair sums, over the ceiling of {enumeration.SUMS_CEILING}\n")


def test_total_counts_past_the_int64_range(capsys):
    # the smallest n whose total exceeds 2**63 - 1: formula and sum buckets agree
    assert total_quads_formula(4801282) == 9223377647790567360 > 2**63 - 1
    assert run(capsys, "total", "--n", "4801282") == (0, "9223377647790567360 9223377647790567360 OK\n", "")


def test_rainbow_naive_checks_scan_ceiling(capsys, tmp_path):
    path = coloring_file(tmp_path, mod_coloring(OVER_CEILING, 4))
    rc, out, err = run(capsys, "rainbow", "--coloring", path, "--method", "naive")
    assert rc == 1 and out == ""
    assert f"{total_quads_formula(OVER_CEILING)} quads" in err and str(SCAN_CEILING) in err


def test_search_exhaustive(capsys, tmp_path):
    out_path = tmp_path / "witness.json"
    rc, out, _ = run(capsys, "search", "--n", "5", "--k", "4", "--exhaustive", "--out", str(out_path))
    assert rc == 0 and out == "2\n"
    obj = json.loads(out_path.read_text())
    assert obj["best_count"] == 2 and obj["exact"] is True
    rc, out, _ = run(capsys, "search", "--n", "5", "--k", "5", "--exhaustive")
    assert rc == 0 and out == "3\n"
    # no 3-coloring has a rainbow quad, so none of the 581130734 canonical ones is walked
    assert run(capsys, "search", "--n", "20", "--k", "3", "--exhaustive") == (0, "0\n", "")


def test_search_local_deterministic(capsys):
    args = ("search", "--n", "25", "--k", "4", "--local", "--seed", "2", "--restarts", "3", "--moves", "300")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert int(out1) >= 0


def test_search_budget_exit_code(capsys):
    rc, _, err = run(capsys, "search", "--n", "14", "--k", "4", "--exhaustive")
    assert rc == 3
    assert "budget" in err


def test_search_budget_checked_before_any_scan(capsys):
    # at n = 500 a naive scan would already exceed SCAN_CEILING (exit 1)
    rc, _, err = run(capsys, "search", "--n", "500", "--k", "4", "--exhaustive")
    assert rc == 3
    assert "budget" in err


def test_search_bad_args(capsys):
    assert run(capsys, "search", "--n", "10", "--k", "3", "--local")[0] == 1
    assert run(capsys, "search", "--n", "10", "--k", "4")[0] == 1  # needs a mode


def test_verify_suites(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "lemmas")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.endswith("PASS") for line in lines)
    rc, out, _ = run(capsys, "verify", "--suite", "lev", "--trials", "100", "--seed", "9")
    assert rc == 0 and out == "compression inequality PASS\n"
    rc, out, _ = run(capsys, "verify", "--suite", "all", "--trials", "60")
    assert rc == 0
    assert "non-rainbow floor PASS" in out


@pytest.mark.parametrize("trials", ["0", "-5"])
@pytest.mark.parametrize("suite", ["lev", "all", "lemmas"])
def test_verify_rejects_trials_below_one(capsys, suite, trials):
    rc, out, err = run(capsys, "verify", "--suite", suite, "--trials", trials)
    assert rc == 1 and out == ""
    assert "--trials must be at least 1" in err


@pytest.mark.parametrize("suite", ["lev", "all", "lemmas"])
def test_verify_checks_trials_ceiling_before_any_suite(capsys, monkeypatch, suite):
    calls = []
    for name in ("_suite_closed_forms", "_suite_lev", "_suite_floor"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name) or [(name, True)])
    over = cli.MAX_TRIALS + 1
    rc, out, err = run(capsys, "verify", "--suite", suite, "--trials", str(over))
    assert (rc, out, err, calls) == (1, "", f"--trials must be at most {cli.MAX_TRIALS}, got {over}\n", [])
    # the ceiling itself is admitted
    assert run(capsys, "verify", "--suite", suite, "--trials", str(cli.MAX_TRIALS))[0] == 0
    assert calls


def plus_one_at(real, point):
    """`real` with 1 added wherever its arguments, ints or broadcast arrays of
    radii and m, all equal the entries of `point`."""
    def wrong(*args):
        hit = True
        for arg, value in zip(args, point, strict=True):
            hit = hit & (np.asarray(arg) == value)
        return real(*args) + hit

    return wrong


# one entry made wrong through what each lemma line reads
LEMMA_FAULTS = {
    "rep two intervals": [
        (cli, "closed_rep_two_intervals", lambda f: plus_one_at(f, (3, 7, -2)))
    ],
    "rep one interval": [
        (cli, "closed_rep_one_interval", lambda f: plus_one_at(f, (5, 3)))
    ],
    "interval energy": [(cli, "closed_energy4_interval", lambda f: lambda a: f(a) + (a == 7))],
    # r_{[-1,1]+[-1,1]}(0) + r_{[-1,1]+[-1,1]}(0) = 6 = 2 r_{J+J}(0) holds with equality at radii (1, 1, 1, 1)
    "sum dominance": [
        (repfn, "closed_rep_two_intervals", lambda f: plus_one_at(f, (1, 1, 0)))
    ],
    # r_{[-1,1]+[-1,1]} . r_{[-1,1]+[-1,1]} = 1 + 4 + 9 + 4 + 1 = 19 = E_4(1) holds with equality at radii (1, 1, 1, 1)
    "product dominance": [(repfn, "closed_energy4_interval", lambda f: lambda a: f(a) - (a == 1))],
}
# each case names its line; the second rep two intervals case is wrong at
# r_{[-3,3]+[-7,7]}(11) = 0, just past the profile's support [-10, 10], so it
# fails only if the zeros past each end are compared too
LEMMA_CASES = {line: (line, faults) for line, faults in LEMMA_FAULTS.items()} | {
    "rep two intervals past the support": (
        "rep two intervals", [(cli, "closed_rep_two_intervals", lambda f: plus_one_at(f, (3, 7, 11)))]
    ),
}


@pytest.mark.parametrize("case", LEMMA_CASES)
def test_verify_lemma_line_fails_on_one_wrong_entry(capsys, monkeypatch, case):
    line, faults = LEMMA_CASES[case]
    for module, name, fault in faults:
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
    rc, out, _ = run(capsys, "verify", "--suite", "lemmas")
    assert rc == 2
    lines = out.splitlines()
    assert len(lines) == 5 and f"{line} FAIL" in lines


def test_oracle_jobs_stay_under_the_naive_scan_peak(capsys, tmp_path):
    # The n = 240 `rainbow --method all` job sets the memory peak of these
    # oracle jobs; verify and total, run after it in that order, must not raise
    # it. Peaks are taken from one baseline, so what verify leaves behind counts
    # toward total's. enumerate_quads(300) holds a table larger than that peak
    # on its own, so for _count_enumerated(300) the checks' share is bounded.
    path = coloring_file(tmp_path, random_coloring(240, 4, 1))
    jobs = {
        "rainbow": ["rainbow", "--coloring", path, "--method", "all"],
        "verify": ["verify", "--suite", "all", "--trials", "500"],
        "total": ["total", "--range", "4..60"],
    }
    assert main(["total", "--n", "5"]) == 0  # warm-up
    capsys.readouterr()
    peaks = {}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for name, argv in jobs.items():
            tracemalloc.reset_peak()
            assert main(argv) == 0
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
        capsys.readouterr()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for q in enumerate_quads(300):
            del q  # as _count_enumerated drops each bucket
        table = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        assert cli._count_enumerated(300) == total_quads_formula(300)
        checks = tracemalloc.get_traced_memory()[1] - base - table
    finally:
        tracemalloc.stop()
    assert peaks["verify"] < peaks["rainbow"], peaks
    assert peaks["total"] < peaks["rainbow"], peaks
    assert checks < peaks["rainbow"], (checks, peaks)


def ar_budget_states(n):
    """Canonical 4-colorings of [n]: sum of Stirling numbers S(n, j), j <= 4, in closed form."""
    return 1 + (2 ** (n - 1) - 1) + (3**n - 3 * 2**n + 3) // 6 + (4**n - 4 * 3**n + 6 * 2**n - 4) // 24


NO_FILE = "[Errno 2] No such file or directory"
ROOT_USAGE = "usage: sidonrainbow [-h] {total,rainbow,bounds,search,verify,sweep} ...\n"

# argv -> (exit code, stdout, stderr), run in a directory holding the files
# that test_cli_failure_paths writes
FAILURES = {
    ("bounds", "--n", "3", "--k", "4"): (1, "", "need n >= k >= 4, got n=3, k=4\n"),
    ("bounds", "--n", "10", "--k", "3"): (1, "", "need n >= k >= 4, got n=10, k=3\n"),
    ("bounds", "--n", "x", "--k", "4"): (
        1, "", "usage: sidonrainbow bounds [-h] --n N --k K [--json]\n"
        "sidonrainbow bounds: error: argument --n: invalid int value: 'x'\n",
    ),
    ("search", "--n", "10", "--k", "4", "--local", "--restarts", "0"): (1, "", "need at least one start\n"),
    ("search", "--n", "10", "--k", "3", "--local"): (1, "", "need n >= k >= 4, got n=10, k=3\n"),
    ("search", "--n", "500", "--k", "4", "--exhaustive"): (
        3, "", f"{ar_budget_states(500)} canonical colorings exceed the budget of 1000000\n",
    ),
    ("search", "--n", "14", "--k", "4", "--exhaustive"): (
        3, "", "11188907 canonical colorings exceed the budget of 1000000\n",
    ),
    # below four colors the walk and its budget are skipped; the fast recount's
    # int64 limit still refuses n > 2097151 before the witness is built
    ("search", "--n", "2097152", "--k", "3", "--exhaustive"): (
        1, "", "n=2097152 is too large for int64 histogram sums: need n <= 2097151\n",
    ),
    # a count too long for Python's int-to-str conversion, by its power of ten
    ("search", "--n", "10000", "--k", "4", "--exhaustive"): (
        3, "", "more than 10^5998 canonical colorings exceed the budget of 1000000\n",
    ),
    ("search", "--n", "1000000", "--k", "4", "--exhaustive"): (
        3, "", "more than 10^599998 canonical colorings exceed the budget of 1000000\n",
    ),
    # past four colors the four-color count is a floor, refused without the Stirling rows
    ("search", "--n", "4000", "--k", "4000", "--exhaustive"): (
        3, "", f"at least {ar_budget_states(4000)} canonical colorings exceed the budget of 1000000\n",
    ),
    # the climb scans no quads: its work ceiling alone refuses
    ("search", "--n", "600", "--k", "4", "--local"): (
        1, "", "4 starts and 1000 moves at n=600, k=4 would take up to 1478659072 gain-table steps, "
        "over the ceiling of 500000000\n",
    ),
    # one gain table a start and a move, each k n^2 + 2^15 steps
    ("search", "--n", "200", "--k", "4", "--local", "--restarts", "10000000"): (
        1, "", "10000000 starts and 1000 moves at n=200, k=4 would take up to 1927872768000 gain-table steps, "
        "over the ceiling of 500000000\n",
    ),
    ("search", "--n", "5", "--k", "4", "--exhaustive", "--out", "/nonexistent/x.json"): (
        1, "2\n", f"cannot write /nonexistent/x.json: {NO_FILE}: '/nonexistent/x.json'\n",
    ),
    ("search", "--n", "10", "--k", "4"): (
        1, "", "usage: sidonrainbow search [-h] --n N --k K (--exhaustive | --local)\n"
        "                           [--seed SEED] [--restarts RESTARTS] [--moves MOVES]\n"
        "                           [--out OUT]\n"
        "sidonrainbow search: error: one of the arguments --exhaustive --local is required\n",
    ),
    ("rainbow", "--coloring", "e35.jsonl", "--method", "energy"): (
        1, "35\n", "energy route needs exactly 4 colors, got k=5\n",
    ),
    ("rainbow", "--coloring", "e4huge.jsonl", "--method", "energy"): (
        1, "", "n=2097152 is too large for int64 histogram sums: need n <= 2097151\n",
    ),
    # a fast count costs O(n) a color class that occurs
    ("rainbow", "--coloring", "many.jsonl", "--method", "fast"): (
        1, "", "421 color classes times n=20000 is 8420000, over the ceiling of 8400000\n",
    ),
    ("rainbow", "--coloring", "cyc.jsonl", "--method", "energy"): (
        1, "", "energy method applies to interval colorings only\n",
    ),
    ("rainbow", "--coloring", "missing.jsonl"): (1, "", f"cannot read missing.jsonl: {NO_FILE}: 'missing.jsonl'\n"),
    ("rainbow", "--coloring", "bad.jsonl"): (
        1, "", "bad coloring file: line 1: malformed JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)\n",
    ),
    ("sweep", "--k", "5", "--n-list", "50,3", "--coloring", "mod", "--out", "s.csv"): (
        1, "", "need n >= k >= 1, got n=3, k=5\n",
    ),
    # every n of the list is checked before the first count
    ("sweep", "--k", "4", "--n-list", "1000000,3000000", "--coloring", "mod", "--out", "s.csv"): (
        1, "", "n=3000000 is too large for int64 histogram sums: need n <= 2097151\n",
    ),
    # one fast count's class ceiling, min(k, n) classes times n, summed over the list
    ("sweep", "--k", "421", "--n-list", "400,20000", "--coloring", "random", "--out", "s.csv"): (
        1, "", "the n-list's color classes times n sum to 8580000, over the ceiling of 8400000\n",
    ),
    ("sweep", "--k", "42", "--n-list", ",".join(["100000"] * 10), "--coloring", "random", "--out", "s.csv"): (
        1, "", "the n-list's color classes times n sum to 42000000, over the ceiling of 8400000\n",
    ),
    # each count is charged at least MIN_CLASS_N for its fixed cost: 4 * 2097151 + 29 * 400
    ("sweep", "--k", "4", "--n-list", ",".join(["2097151"] + ["4"] * 29), "--coloring", "random", "--out", "s.csv"): (
        1, "", "the n-list's color classes times n, each class at least 100 and each count at least 400, "
        "sum to 8400204, over the ceiling of 8400000\n",
    ),
    # and each color class at least MIN_PER_CLASS: 42 * 199000 + 27 * 16 * 100 (8368800, under
    # the ceiling, with each count alone charged 400)
    ("sweep", "--k", "42", "--n-list", ",".join(["199000"] + ["16"] * 27), "--coloring", "random", "--out", "s.csv"): (
        1, "", "the n-list's color classes times n, each class at least 100 and each count at least 400, "
        "sum to 8401200, over the ceiling of 8400000\n",
    ),
    ("sweep", "--k", "4", "--n-list", "600000,0", "--coloring", "random", "--out", "s.csv"): (
        1, "", "need n >= 1 and k >= 1, got n=0, k=4\n",
    ),
    ("sweep", "--k", "4", "--n-list", "1050000,1050001", "--coloring", "random", "--out", "s.csv"): (
        1, "", "the n-list's color classes times n sum to 8400004, over the ceiling of 8400000\n",
    ),
    ("sweep", "--k", "0", "--n-list", "8", "--coloring", "random", "--out", "s.csv"): (
        1, "", "need n >= 1 and k >= 1, got n=8, k=0\n",
    ),
    ("sweep", "--k", "4", "--n-list", "48", "--coloring", "mod", "--out", "/nonexistent/x.csv"): (
        1, "", f"cannot write /nonexistent/x.csv: {NO_FILE}: '/nonexistent/x.csv'\n",
    ),
    ("sweep", "--k", "4", "--n-list", "", "--coloring", "mod", "--out", "s.csv"): (1, "", "empty n-list\n"),
    ("sweep", "--k", "4", "--n-list", "4,foo", "--coloring", "mod", "--out", "s.csv"): (1, "", "bad n-list '4,foo'\n"),
    ("total", "--range", "9..2"): (1, "", "bad range '9..2'\n"),
    # a superscript is a digit to str.isdigit but not to int()
    ("total", "--range", "²..5"): (1, "", "bad range '²..5', expected A..B\n"),
    ("total", "--n", "5000002"): (1, "", "n=5000002 would add up 10000001 pair sums, over the ceiling of 10000000\n"),
    ("verify", "--suite", "lev", "--trials", "0"): (1, "", "--trials must be at least 1, got 0\n"),
    ("verify", "--suite", "all", "--trials", "10001"): (1, "", "--trials must be at most 10000, got 10001\n"),
    ("frobnicate",): (
        1, "", ROOT_USAGE + "sidonrainbow: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'total', 'rainbow', 'bounds', 'search', 'verify', 'sweep')\n",
    ),
    (): (1, "", ROOT_USAGE + "sidonrainbow: error: the following arguments are required: command\n"),
}


# the input files of FAILURES, each written only for the rows that name it
FAILURE_FILES = {
    # 35 rainbow quads, then k = 5
    "e35.jsonl": lambda: "".join(serialize_coloring(c) + "\n" for c in (mod_coloring(12, 4), mod_coloring(10, 5))),
    "e4huge.jsonl": lambda: serialize_coloring(mod_coloring(2**21, 4)) + "\n",
    "many.jsonl": lambda: serialize_coloring(mod_coloring(20000, 421)) + "\n",
    "cyc.jsonl": lambda: serialize_coloring(mod_coloring(8, 4, Domain.CYCLIC)) + "\n",
    "bad.jsonl": lambda: "{broken\n",
}


@pytest.mark.parametrize("argv", FAILURES, ids=lambda argv: " ".join(argv) or "(empty)")
def test_cli_failure_paths(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    for name, text in FAILURE_FILES.items():
        if name in argv:
            (tmp_path / name).write_text(text())
    files = set(tmp_path.iterdir())
    start = time.perf_counter()
    assert run(capsys, *argv) == FAILURES[argv]
    assert time.perf_counter() - start < 2  # refused at once, not after the work
    assert set(tmp_path.iterdir()) == files  # nothing written


# stdout bytes that json.loads would not see: key order, nulls, fractions, the text layout
BOUNDS_STDOUT = {
    ("--n", "96", "--k", "4", "--json"): '{"n":96,"k":4,"total_exact":70312,"ub_trivial":"70312/1",'
    '"ub_general":"64512/1","ub_general_flag":"+O_k(n^2)","ub_k4":"27648/1","ub_k4_flag":"+O(n^2)",'
    '"lb_construction":"18432/1","lb_construction_flag":"-O_k(n^2)","cyclic_ub_k4":"41472/1",'
    '"cyclic_lb_k4":"27648/1","s_k":2}\n',
    ("--n", "101", "--k", "7", "--json"): '{"n":101,"k":7,"total_exact":82075,"ub_trivial":"656601/8",'
    '"ub_general":"13393913/168","ub_general_flag":"+O_k(n^2)","ub_k4":null,"ub_k4_flag":null,'
    '"lb_construction":"2060602/49","lb_construction_flag":"-O_k(n^2)","cyclic_ub_k4":null,'
    '"cyclic_lb_k4":null,"s_k":21}\n',
    ("--n", "100", "--k", "5"): "n                100\n"
    "k                5\n"
    "total_exact      79625\n"
    "ub_trivial       79625 (79625)\n"
    "ub_general       75000 (75000) +O_k(n^2)\n"
    "ub_k4            -\n"
    "lb_construction  80000/3 (26666.7) -O_k(n^2)\n"
    "cyclic_ub_k4     -\n"
    "cyclic_lb_k4     -\n"
    "s_k              5\n",
}


@pytest.mark.parametrize("argv", BOUNDS_STDOUT, ids=" ".join)
def test_bounds_stdout_bytes(capsys, argv):
    assert run(capsys, "bounds", *argv) == (0, BOUNDS_STDOUT[argv], "")


SEARCH_OUT = {
    5: (2, b'{"method":"exhaustive","best_count":2,"restarts":0,"moves":0,"seed":0,"exact":true,'
        b'"stop":"complete","coloring":{"domain":"interval","n":5,"k":4,"colors":[1,2,1,3,4]}}\n'),
    12: (37, b'{"method":"exhaustive","best_count":37,"restarts":0,"moves":0,"seed":0,"exact":true,'
         b'"stop":"complete","coloring":{"domain":"interval","n":12,"k":4,"colors":[1,2,3,4,3,2,1,4,3,4,1,2]}}\n'),
}


@pytest.mark.parametrize("n", SEARCH_OUT)
def test_search_out_bytes(capsys, tmp_path, n):
    best, text = SEARCH_OUT[n]
    path = tmp_path / "witness.json"
    assert run(capsys, "search", "--n", str(n), "--k", "4", "--exhaustive", "--out", str(path)) == (0, f"{best}\n", "")
    assert path.read_bytes() == text


def test_sweep_csv(capsys, tmp_path):
    out_path = tmp_path / "results.csv"
    rc, _, _ = run(
        capsys, "sweep", "--k", "4", "--n-list", "48,96,192", "--coloring", "mod", "--out", str(out_path)
    )
    assert rc == 0
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert [r["rainbow"] for r in rows] == ["2300", "18424", "147440"]
    assert [r["n"] for r in rows] == ["48", "96", "192"]
    ratios = [r["ratio"] for r in rows]
    assert ratios == sorted(ratios)  # increasing toward 1/48
    assert all(r["lb_coeff"] == "1/48" and r["ub_coeff"] == "7/96" for r in rows)
    # byte-identical on a second run
    first = out_path.read_bytes()
    run(capsys, "sweep", "--k", "4", "--n-list", "48,96,192", "--coloring", "mod", "--out", str(out_path))
    assert out_path.read_bytes() == first


def test_sweep_random_family(capsys, tmp_path):
    out_path = tmp_path / "r.csv"
    rc, _, _ = run(
        capsys, "sweep", "--k", "5", "--n-list", "50", "--coloring", "random", "--seed", "3",
        "--out", str(out_path),
    )
    assert rc == 0
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert len(rows) == 1 and rows[0]["coloring"] == "random"


def test_sweep_bad_lists(capsys, tmp_path):
    out_path = str(tmp_path / "x.csv")
    assert run(capsys, "sweep", "--k", "4", "--n-list", "", "--coloring", "mod", "--out", out_path)[0] == 1
    assert run(capsys, "sweep", "--k", "4", "--n-list", "4,foo", "--coloring", "mod", "--out", out_path)[0] == 1


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser built"))
    assert run(capsys, "total", "--n", "5") == (0, "3 3 3 OK\n", "")
    rc, out, err = run(capsys, "--help")
    assert rc == 0 and out.startswith("usage: sidonrainbow") and err == ""


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys)[0] == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sidonrainbow.cli", "total", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3 3 3 OK\n"
