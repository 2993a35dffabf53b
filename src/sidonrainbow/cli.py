"""Command-line surface.

Subcommands: total, rainbow, bounds, search, verify, sweep. Every invocation
is deterministic given its flags; all randomness flows from explicit --seed.

Exit codes: 0 success, 1 usage or IO error, 2 verification mismatch,
3 search budget exceeded. A subcommand returns 0 or 2 and raises on failure;
main alone maps a failure to its exit code and its stderr message.
"""
from __future__ import annotations

import argparse
import csv
import io
import random
import sys
from fractions import Fraction

import numpy as np

from .bounds import bounds_report, lb_coefficient, report_to_json, report_to_text, ub_general_coefficient
from .core import Domain, _check_ceiling, _check_family, mod_coloring, parse_coloring_lines, random_coloring
from .counting import (
    CLASS_N_CEILING,
    MIN_CLASS_N,
    MIN_PER_CLASS,
    _check_headroom,
    count_rainbow_cyclic_fast,
    count_rainbow_cyclic_naive,
    count_rainbow_fast,
    count_rainbow_naive,
    non_rainbow_lower_bound,
    rainbow_via_energy,
)
from .enumeration import (
    _BLOCK_ROWS,
    _check_scan,
    _check_sum_range,
    count_quads_by_sums,
    enumerate_quads,
    total_quads_formula,
)
from .repfn import (
    IntSet,
    _interval,
    additive_energy,
    check_energy_dominance,
    check_lev,
    check_sum_dominance,
    closed_energy4_interval,
    closed_rep_one_interval,
    closed_rep_two_intervals,
    rep_profile,
)
from .search import (
    BudgetExceededError,
    exhaustive_ar,
    local_search,
    result_to_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdecimal() or not hi.isdecimal():
        raise ValueError(f"bad range {text!r}, expected A..B")
    a, b = int(lo), int(hi)
    if a < 1 or b < a:
        raise ValueError(f"bad range {text!r}")
    return a, b


def _check_rows(q: np.ndarray, n: int) -> None:
    """Raise ValueError naming q's first column that is not a canonical Sidon 4-set of [n]."""
    x1, x2, x3, x4 = q
    ok = (1 <= x4) & (x4 < x3) & (x3 < x2) & (x2 < x1) & (x1 <= n) & (x1 + x4 == x2 + x3)
    if not ok.all():
        bad = tuple(q[:, ok.argmin()].tolist())
        raise ValueError(f"enumerating n={n} gave {bad}, not a canonical Sidon 4-set of [{n}]")


def _count_enumerated(n: int) -> int:
    """total's third route: the quads enumerate_quads yields, counted after the
    checks SidonQuad makes (x1 > x2 > x3 > x4, x1 + x4 = x2 + x3) and a range
    check (1 <= x4, x1 <= n), block by block (a block of one large pair sum in
    slices of _BLOCK_ROWS rows); a ValueError names the first quad that fails,
    in enumeration order."""
    count = 0
    for q in enumerate_quads(n):
        for i in range(0, len(q), _BLOCK_ROWS):
            _check_rows(q[i : i + _BLOCK_ROWS].T, n)
        count += len(q)
        del q  # before the next block is built
    return count


def _print_verdict(head: str, vals: list[int]) -> bool:
    ok = len(set(vals)) == 1
    print(head + " ".join(str(v) for v in vals) + (" OK" if ok else " MISMATCH"))
    return ok


def _cmd_total(args) -> int:
    lo, hi = _parse_range(args.range) if args.range else (args.n, args.n)
    ns = range(lo, hi + 1)
    enumerated = [n for n in ns if n <= 60 or args.brute]
    # the limits for the whole command, checked before any line is printed
    _check_sum_range(ns)
    _check_scan(sum(map(total_quads_formula, enumerated)), f"enumerating n={args.range or args.n}")
    status = EXIT_OK
    for n in ns:
        vals = [total_quads_formula(n), count_quads_by_sums(n)]
        if n in enumerated:
            vals.append(_count_enumerated(n))
        if not _print_verdict(f"n={n} " if args.range else "", vals):
            status = EXIT_MISMATCH
    return status


def _rainbow_counts(c, method: str) -> list[int]:
    cyclic = c.domain is Domain.CYCLIC
    if cyclic and method == "energy":
        raise ValueError("energy method applies to interval colorings only")
    out = []
    if method in ("naive", "all"):
        out.append(count_rainbow_cyclic_naive(c) if cyclic else count_rainbow_naive(c).rainbow)
    if method in ("fast", "all"):
        out.append(count_rainbow_cyclic_fast(c) if cyclic else count_rainbow_fast(c))
    if not cyclic and (method == "energy" or (method == "all" and c.k == 4)):
        out.append(rainbow_via_energy(c))
    return out


def _cmd_rainbow(args) -> int:
    try:
        with open(args.coloring, encoding="utf-8") as fh:
            colorings = parse_coloring_lines(fh.read())
    except OSError as e:
        raise ValueError(f"cannot read {args.coloring}: {e}") from None
    except ValueError as e:
        raise ValueError(f"bad coloring file: {e}") from None
    status = EXIT_OK
    for c in colorings:
        vals = _rainbow_counts(c, args.method)
        if args.method != "all":
            print(vals[0])
        elif not _print_verdict("", vals):
            status = EXIT_MISMATCH
    return status


def _cmd_bounds(args) -> int:
    report = bounds_report(args.n, args.k)
    print(report_to_json(report) if args.json else report_to_text(report))
    return EXIT_OK


def _write(path: str, text: str) -> int:
    # newline="" writes line ends as given: csv ends its rows with \r\n
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}") from None
    return EXIT_OK


def _cmd_search(args) -> int:
    if args.exhaustive:
        result = exhaustive_ar(args.n, args.k)
    else:
        result = local_search(args.n, args.k, args.seed, args.restarts, args.moves)
    print(result.best_count)
    return _write(args.out, result_to_json(result) + "\n") if args.out else EXIT_OK


def _suite_closed_forms() -> list[tuple[str, bool]]:
    # each profile r_{[-a,a]+[-b,b]}, 1 <= a <= b <= 30, is built once and compared whole, in slabs
    # of at most 8 rows a per b (each array under 8 KiB), with at least two zeros past each end;
    # the dominance lines below read the closed forms this proves equal to them
    intervals = [_interval(r) for r in range(31)]  # indexed by radius
    two_ok = one_ok = True
    for beta in range(1, 31):
        for alphas in (np.arange(a, min(a + 8, beta + 1)) for a in range(1, beta + 1, 8)):
            reach = alphas[-1] + beta + 2
            ms, values = np.arange(-reach, reach + 1), np.zeros((len(alphas), 2 * reach + 1), dtype=np.int64)
            for row, alpha in zip(values, alphas):
                lo, counts = rep_profile(intervals[alpha], intervals[beta])
                row[lo + reach : lo + reach + len(counts)] = counts
            two_ok &= np.array_equal(closed_rep_two_intervals(alphas[:, None], beta, ms), values)
        # the last slab's last row is the profile at a = b
        one_ok &= np.array_equal(closed_rep_one_interval(beta, ms), values[-1])
    e4_ok = all(closed_energy4_interval(a) == additive_energy([intervals[a]] * 4) for a in range(1, 21))
    del intervals, values, ms  # before the dominance lines, whose peak is verify's
    # the radius tuples in 1..8 with 4 | s as columns, checked in slabs of 32 (each
    # call's arrays under 10 KiB) that share min(a1 + a2, a3 + a4): the pointwise
    # bound holds inside both pair supports, |m| <= that reach
    radii = np.indices((8,) * 4, dtype=np.int8).reshape(4, -1) + 1
    radii = radii[:, radii.sum(axis=0, dtype=np.int8) % 4 == 0]
    reaches = np.minimum(radii[0] + radii[1], radii[2] + radii[3])
    sum_ok = product_ok = True
    for reach in range(2, 17):
        same = radii[:, reaches == reach]
        for slab in (same[:, i : i + 32] for i in range(0, same.shape[1], 32)):
            sum_ok &= check_sum_dominance(*slab, np.arange(-reach, reach + 1))
            product_ok &= check_energy_dominance(*slab)
    return [("rep two intervals", two_ok), ("rep one interval", one_ok),
            ("interval energy", e4_ok), ("sum dominance", sum_ok), ("product dominance", product_ok)]


def _suite_lev(trials: int, seed: int) -> list[tuple[str, bool]]:
    rng = random.Random(seed)
    ok = True
    for _ in range(trials):
        t = rng.choice((2, 3, 4))
        ok &= check_lev([IntSet(rng.sample(range(-10, 11), rng.randint(1, 8))) for _ in range(t)])
    return [("compression inequality", ok)]


def _suite_floor(trials: int, seed: int) -> list[tuple[str, bool]]:
    rng = random.Random(seed)
    ok = True
    for _ in range(trials):
        c = random_coloring(rng.randint(10, 60), rng.randint(2, 6), rng.randint(0, 10**9))
        bd = count_rainbow_naive(c)
        ok &= Fraction(bd.total - bd.rainbow) >= non_rainbow_lower_bound(c)
    return [("non-rainbow floor", ok)]


# The most --trials one verify may take: --suite all at the ceiling takes 0.9 to
# 1.3 s on a 2-vCPU x86 host (numpy 2.4), and 0.05 to 0.11 s at the default of 500.
MAX_TRIALS = 10_000


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.trials > MAX_TRIALS:
        raise ValueError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
    checks: list[tuple[str, bool]] = []
    if args.suite in ("lemmas", "all"):
        checks += _suite_closed_forms()
    if args.suite in ("lev", "all"):
        checks += _suite_lev(args.trials, args.seed)
    if args.suite == "all":
        checks += _suite_floor(max(10, args.trials // 20), args.seed)
    for name, ok in checks:
        print(f"{name} {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_MISMATCH


def _cmd_sweep(args) -> int:
    try:
        ns = [int(part) for part in args.n_list.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"bad n-list {args.n_list!r}") from None
    if not ns:
        raise ValueError("empty n-list")
    k = args.k
    # the limits for the whole list, checked before the first count: each n,
    # then one fast count's class ceiling over the list's min(k, n) classes,
    # each class charged at least MIN_PER_CLASS and each count at least MIN_CLASS_N
    for n in ns:
        _check_family(n, k, surjective=args.coloring == "mod")
        _check_headroom(n)
    work = sum(max(min(k, n) * max(n, MIN_PER_CLASS), MIN_CLASS_N) for n in ns)
    floors = f", each class at least {MIN_PER_CLASS} and each count at least {MIN_CLASS_N},"
    least = floors if work > sum(min(k, n) * n for n in ns) else ""
    _check_ceiling(work, CLASS_N_CEILING, f"the n-list's color classes times n{least} sum to {work}")
    lb, ub = lb_coefficient(k), ub_general_coefficient(k)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(("n", "k", "coloring", "rainbow", "total", "ratio", "lb_coeff", "ub_coeff"))
    for n in ns:
        c = mod_coloring(n, k) if args.coloring == "mod" else random_coloring(n, k, args.seed)
        rainbow = count_rainbow_fast(c)
        ratio = f"{float(Fraction(rainbow, n**3)):.8f}"
        writer.writerow(
            (n, k, args.coloring, rainbow, total_quads_formula(n), ratio,
             f"{lb.numerator}/{lb.denominator}", f"{ub.numerator}/{ub.denominator}")
        )
    return _write(args.out, out.getvalue())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sidonrainbow")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("total", help="total Sidon 4-set counts by three methods")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--n", type=int)
    grp.add_argument("--range", help="inclusive range A..B")
    p.add_argument("--brute", action="store_true", help="force enumeration above n=60")
    p.set_defaults(func=_cmd_total)

    p = sub.add_parser("rainbow", help="rainbow counts for colorings in a file")
    p.add_argument("--coloring", required=True, help="coloring JSON file (one object per line)")
    p.add_argument("--method", choices=("naive", "fast", "energy", "all"), default="all")
    p.set_defaults(func=_cmd_rainbow)

    p = sub.add_parser("bounds", help="bound formulas for (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("search", help="search colorings for many rainbow quads")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--exhaustive", action="store_true")
    grp.add_argument("--local", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--moves", type=int, default=1000)
    p.add_argument("--out", help="write the result JSON here")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="closed-form and inequality self-checks")
    p.add_argument("--suite", choices=("lemmas", "lev", "all"), default="all")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="rainbow counts of a coloring family over many n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-list", required=True, help="comma-separated n values")
    p.add_argument("--coloring", choices=("mod", "random"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    return parser


# parsing does not change the parser, so every main call shares one
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(str(e), file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
