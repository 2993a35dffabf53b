"""Job lists of the benchmark's workloads, generated from a seed, with expected outputs.

Every expected output comes from a second route: bench/oracle.py for values
that depend on the seed, and the literals below for those that do not.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

# `fox_spot_check` has no subcommand; a job whose argv starts with this name
# calls sidonrainbow.search.fox_spot_check(n) and prints its result.
FOX = "fox_spot_check"

# Values that do not depend on the seed. Each is what the library returns and
# what oracle.brute_force_ar4 finds over all 4-colourings (bench/test_smoke.py
# checks both routes again).
AR4 = {6: 4, 7: 6, 10: 20, 11: 26}
FOX_SPOT = {6: True, 7: True, 10: True, 11: False}

VERIFY_LINES = (
    "rep two intervals",
    "rep one interval",
    "interval energy",
    "sum dominance",
    "product dominance",
    "compression inequality",
    "non-rainbow floor",
)

@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    expected: str  # stdout, followed by the text of `out` when the job writes a file
    out: Path | None = None


def _rainbow_job(path: Path, specs: list[tuple[str, int, int]], rng: np.random.Generator, method: str) -> Job:
    """Write uniform random colourings as JSON lines; a `rainbow` job over them."""
    lines, text = [], ""
    for domain, n, k in specs:
        colors = rng.integers(1, k + 1, size=n).tolist()
        lines.append(json.dumps({"domain": domain, "n": n, "k": k, "colors": colors}, separators=(",", ":")))
        count = oracle.rainbow_cyclic(colors, k) if domain == "cyclic" else oracle.rainbow_interval(colors, k)
        if method == "all":
            # naive and fast everywhere, plus the energy route on 4-coloured intervals
            routes = 2 + (domain == "interval" and k == 4)
            text += " ".join([str(count)] * routes) + " OK\n"
        else:
            text += f"{count}\n"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Job(("rainbow", "--coloring", str(path), "--method", method), text)


def count_jobs(seed: int, work: Path, tiny: bool) -> list[Job]:
    # Two halves of roughly equal time: large n with few colours (profile
    # construction and its memory dominate) and moderate n with many colours
    # (the colour-split product sum dominates), plus one cyclic job.
    # k = 4 stays at n <= 20000: the outer-product profiles grow as n^2.
    rng = np.random.default_rng(seed)
    if tiny:
        large, many, cyclic, sweep_ns = [(300, 4), (300, 8)], [(120, 16), (64, 32)], (200, 8), [50, 80]
    else:
        large, many, cyclic, sweep_ns = [(20000, 4), (20000, 8)], [(10000, 16), (3000, 32)], (8000, 8), [2000, 4000, 6000]
    sweep_seed = int(rng.integers(1 << 30))
    sweep_out = work / "sweep.csv"
    return [
        _rainbow_job(work / "large.jsonl", [("interval", n, k) for n, k in large], rng, "fast"),
        _rainbow_job(work / "many.jsonl", [("interval", n, k) for n, k in many], rng, "fast"),
        Job(
            ("sweep", "--k", "16", "--n-list", ",".join(map(str, sweep_ns)), "--coloring", "random",
             "--seed", str(sweep_seed), "--out", str(sweep_out)),
            oracle.sweep_csv(16, sweep_ns, sweep_seed),
            sweep_out,
        ),
        _rainbow_job(work / "cyclic.jsonl", [("cyclic", *cyclic)], rng, "fast"),
    ]


def search_jobs(seed: int, work: Path, tiny: bool) -> list[Job]:
    # The mod-k start is a local maximum at these n (0 moves), so the random
    # restarts do the climbing; each move budget runs out inside the first one.
    search_seed = random.Random(seed).randrange(1 << 30)
    if tiny:
        local, exhaustive = [(20, 4, 3), (24, 8, 2)], (6, 7)
    else:
        local, exhaustive = [(60, 4, 10), (60, 8, 6)], (10, 11)
    jobs = []
    for n, k, moves in local:
        best, _ = oracle.local_search_best(n, k, search_seed, 4, moves)
        argv = ("search", "--n", str(n), "--k", str(k), "--local", "--seed", str(search_seed),
                "--restarts", "4", "--moves", str(moves))
        jobs.append(Job(argv, f"{best}\n"))
    for n in exhaustive:
        jobs.append(Job(("search", "--n", str(n), "--k", "4", "--exhaustive"), f"{AR4[n]}\n"))
    for n in exhaustive:
        jobs.append(Job((FOX, str(n)), f"{FOX_SPOT[n]}\n"))
    return jobs


def oracle_jobs(seed: int, work: Path, tiny: bool) -> list[Job]:
    # Every independent counter on small inputs, the closed-form and
    # inequality self-checks, and the three-route totals: many short jobs
    # in the pure-Python oracles, where the fast counters do little.
    rng = np.random.default_rng(seed)
    sizes = (40, 60) if tiny else (150, 240)
    jobs = []
    for n in sizes:
        jobs.append(_rainbow_job(work / f"interval{n}.jsonl", [("interval", n, 4)], rng, "all"))
        jobs.append(_rainbow_job(work / f"cyclic{n}.jsonl", [("cyclic", n, 6)], rng, "all"))
    trials = 40 if tiny else 500
    verify = "".join(f"{name} PASS\n" for name in VERIFY_LINES)
    jobs.append(Job(("verify", "--suite", "all", "--trials", str(trials), "--seed", str(int(rng.integers(1 << 30)))), verify))
    hi = 20 if tiny else 60
    jobs.append(Job(("total", "--range", f"4..{hi}"), "".join(oracle.total_line(n) + "\n" for n in range(4, hi + 1))))
    return jobs


WORKLOADS = {"count": count_jobs, "search": search_jobs, "oracle": oracle_jobs}


def build(workload: str, seed: int, work: Path, tiny: bool) -> list[Job]:
    """Write the workload's inputs under `work` and return its jobs in run order."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, work, tiny)
