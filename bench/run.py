"""Benchmark of the sidonrainbow library and CLI.

Run from the repository root:

    python3 bench/run.py --workload count --seed 1 --seconds 15 --trace 0

One client drives the library in a closed loop from this process: each job is
`sidonrainbow.cli.main(argv)` (or `search.fox_spot_check(n)`) called
in-process with stdout captured, and starts after the previous one returns.
A pass runs the workload's job list once; every job's output is compared with
an expected value from a second route (bench/workloads.py).

--trace 0 prints the end-to-end metrics:
  wall_s    seconds per pass, tracing off: each job's median over the timed
            passes, summed;
  peak_mib  peak tracemalloc memory over one untimed pass of its own;
  setup_s   median cold `import sidonrainbow.cli` in fresh interpreters.
--trace 1 prints the per-layer metrics: the same untimed memory pass, then
untraced passes for half the time and passes with every public function of
every module wrapped in spans for the other half (bench/tracer.py).

wall_s and setup_s are given at a fixed reference speed. On a shared
2-vCPU Xeon host the same Python code ran up to 1.7 times faster or slower
from one minute to the next, which moved raw pass times of one commit by 30%
between runs. So a fixed pure-Python loop is timed just before
every job and every cold import, and each time is scaled by REF_SECONDS over
that loop's time before the medians are taken. The raw times are printed as
wall_raw_s and setup_raw_s and kept in the result file under .bench_work/.

Failed jobs over attempted jobs (the error rate) are the `failed` and
`attempted` fields of the last line; it is not a declared metric because it
is 0 on a correct program. Seed 9973 is held out: do not run it while
developing a change, and use it to confirm a claimed gain.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

from tracer import PeakMeter, Tracer, public_functions

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HELD_OUT_SEED = 9973
SETUP_REPEATS = 11
MIN_PASSES = 3
REF_SECONDS = 0.04  # typical time of reference_seconds() on the host above
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "peak_mib": "MiB", "setup_s": "s"}

_UNITS = {
    "calls": "count",
    "self_s": "s",
    "ns_per_quad": "ns",
    "peak_mib": "MiB",
    "moves": "count",
    "ms_per_move": "ms",
    "us_per_state": "us",
    "overhead_s": "s",
}
# name -> unit; a name is <layer>.<function>.<stat>, <layer>.<stat> for a
# whole layer, or trace.overhead_s (traced minus untraced wall_s)
PER_LAYER = {
    name: _UNITS[name.rsplit(".", 1)[1]]
    for name in (
        "counting.count_rainbow_fast.calls",
        "counting.count_rainbow_fast.self_s",
        "counting.count_rainbow_fast.ns_per_quad",
        "counting.count_rainbow_fast.peak_mib",
        "counting.count_rainbow_cyclic_fast.calls",
        "counting.count_rainbow_cyclic_fast.self_s",
        "counting.count_rainbow_cyclic_fast.peak_mib",
        "counting.count_rainbow_naive.calls",
        "counting.count_rainbow_naive.self_s",
        "counting.count_rainbow_naive.ns_per_quad",
        "counting.count_rainbow_cyclic_naive.self_s",
        "counting.rainbow_via_energy.self_s",
        "counting.non_rainbow_lower_bound.self_s",
        "repfn.additive_energy.calls",
        "repfn.additive_energy.self_s",
        "repfn.rep_profile.calls",
        "repfn.rep_profile.self_s",
        "repfn.check_lev.self_s",
        "repfn.check_energy_dominance.self_s",
        "repfn.check_sum_dominance.self_s",
        "enumeration.enumerate_quads.self_s",
        "enumeration.f_n_exact.calls",
        "enumeration.f_n_exact.self_s",
        "search.local_search.calls",
        "search.local_search.self_s",
        "search.local_search.moves",
        "search.local_search.ms_per_move",
        "search.exhaustive_ar.self_s",
        "search.exhaustive_ar.us_per_state",
        "search.fox_spot_check.self_s",
        "core.parse_coloring_lines.self_s",
        "core.random_coloring.self_s",
        "core.mod_coloring.self_s",
        "bounds.self_s",
        "cli.main.self_s",
        "trace.overhead_s",
    )
}
# functions whose peak memory per call the memory pass records
METERED = ("counting.count_rainbow_fast", "counting.count_rainbow_cyclic_fast")


def load_library():
    """Import sidonrainbow from this checkout's src/, or exit with status 1 and no result."""
    sys.path.insert(0, str(SRC))
    try:
        import sidonrainbow.cli
        import sidonrainbow.search
    except ImportError as e:
        sys.exit(f"cannot import sidonrainbow from {SRC}: {e}")
    if Path(sidonrainbow.__file__).resolve().parent.parent != SRC:
        sys.exit(f"sidonrainbow was imported from {sidonrainbow.__file__}, not from {SRC}")
    return sidonrainbow


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop: how fast the machine runs right now."""
    t0 = perf_counter()
    total = 0
    for i in range(600_000):
        total += i & 7
    return perf_counter() - t0


def cold_import_seconds(repeats: int) -> tuple[float, float]:
    """Median time of `import sidonrainbow.cli`, timed inside fresh interpreters:
    (at reference speed, raw)."""
    code = "import time; t = time.perf_counter(); import sidonrainbow.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, scaled = [], []
    for i in range(repeats + 1):
        ref = reference_seconds()
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60
        )
        if i:  # the first import may write bytecode caches
            times.append(float(out.stdout))
            scaled.append(times[-1] * REF_SECONDS / ref)
    return statistics.median(scaled), statistics.median(times)


def context(workload: str, seed: int, trace: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Runner:
    """Runs job lists against the library and counts failures."""

    def __init__(self, lib, jobs, fox_name: str):
        self.lib, self.jobs, self.fox_name = lib, jobs, fox_name
        self.attempted = 0
        self.failed = 0
        self.first_failure = ""

    def _run_job(self, job) -> bool:
        out, err = io.StringIO(), io.StringIO()
        if job.out:
            job.out.unlink(missing_ok=True)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if job.argv[0] == self.fox_name:
                    print(self.lib.search.fox_spot_check(int(job.argv[1])))
                    code = 0
                else:
                    code = self.lib.cli.main(list(job.argv))
            text = out.getvalue() + (job.out.read_bytes().decode("utf-8") if job.out else "")
        except Exception:
            code, text = None, traceback.format_exc()
        ok = code == 0 and text == job.expected
        if not ok and not self.first_failure:
            self.first_failure = f"{' '.join(job.argv)}: exit {code}\n{text[:400]}{err.getvalue()[:400]}"
        return ok

    def one_pass(self, tracer=None) -> tuple[list[float], list[float]]:
        """Seconds of each job in one pass, and of the reference loop before each."""
        seconds, refs = [], []
        for index, job in enumerate(self.jobs):
            if tracer:
                tracer.job = index
            refs.append(reference_seconds())
            t0 = perf_counter()
            self.failed += not self._run_job(job)
            seconds.append(perf_counter() - t0)
        self.attempted += len(self.jobs)
        return seconds, refs

    def timed(self, seconds: float, traced=None, work=None) -> tuple[list[tuple], list[Tracer]]:
        """Passes until `seconds` have gone by (at least MIN_PASSES); their one_pass results and tracers.

        With `traced` ({name: function}), each pass records spans of those functions.
        """
        times, tracers = [], []
        start = perf_counter()
        while len(times) < MIN_PASSES or perf_counter() - start < seconds:
            if traced is None:
                times.append(self.one_pass())
                continue
            tracer = Tracer(work)
            with tracer.patched(traced):
                times.append(self.one_pass(tracer))
            tracers.append(tracer)
        return times, tracers


def memory_pass(runner: Runner, functions) -> tuple[float, dict[str, float]]:
    """(peak MiB of a whole pass, peak MiB above entry of each metered function)."""
    meter = PeakMeter()
    tracemalloc.start()
    try:
        with meter.patched({name: functions[name] for name in METERED}):
            runner.one_pass()
        peak = meter.pass_peak()
    finally:
        tracemalloc.stop()
    return peak / 2**20, {name: b / 2**20 for name, b in meter.peaks.items()}


def pass_seconds(passes: list[tuple[list[float], list[float]]], adjust: bool = True) -> float:
    """Seconds for one pass: each job's median time over the passes, summed.

    With adjust, each job time is first brought to reference speed by the
    reference loop timed just before it.
    """
    scaled = [[t * REF_SECONDS / r if adjust else t for t, r in zip(jobs, refs)] for jobs, refs in passes]
    return sum(statistics.median(times) for times in zip(*scaled))


def layer_metrics(totals: list[dict], peaks: dict[str, float], overhead: float) -> dict[str, float]:
    """Per-layer metrics from per-pass span totals (median over passes)."""

    def stat(pass_totals: dict, name: str) -> float:
        fn, kind = name.rsplit(".", 1)
        if kind == "peak_mib":
            return peaks.get(fn, 0.0)
        if name == "trace.overhead_s":
            return overhead
        if "." not in fn:  # a whole layer
            return sum((t["self_s"] for f, t in pass_totals.items() if f.startswith(fn + ".")), 0.0)
        t = pass_totals.get(fn, {"calls": 0, "self_s": 0.0, "work": 0})
        scale = {"ns_per_quad": 1e9, "ms_per_move": 1e3, "us_per_state": 1e6}.get(kind)
        if scale:
            return t["self_s"] * scale / t["work"] if t["work"] else 0.0
        return t["work"] if kind == "moves" else t[kind]

    return {name: statistics.median_low(stat(t, name) for t in totals) for name in PER_LAYER}


def main(argv=None) -> int:
    for var in THREAD_VARS:  # one process, no added threads; set before numpy loads
        os.environ[var] = "1"
    import oracle
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time spent in measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)
    lib = load_library()

    phases = {}  # seconds spent in each phase of this run
    t = perf_counter()
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    jobs = workloads.build(args.workload, args.seed, work_dir, args.grid == "tiny")
    phases["inputs"] = perf_counter() - t
    ctx = context(args.workload, args.seed, args.trace)
    runner = Runner(lib, jobs, workloads.FOX)
    functions = public_functions()

    t = perf_counter()
    peak_mib, layer_peaks = memory_pass(runner, functions)  # also warms caches for the timed passes
    phases["memory_pass"] = perf_counter() - t
    report = {"context": ctx, "jobs": [" ".join(j.argv) for j in jobs], "phase_seconds": phases}

    if args.trace == 0:
        t = perf_counter()
        setup_s, setup_raw = cold_import_seconds(SETUP_REPEATS)
        phases["setup"] = perf_counter() - t
        passes, _ = runner.timed(args.seconds)
        metrics = {"wall_s": pass_seconds(passes), "peak_mib": peak_mib, "setup_s": setup_s}
        units = END_TO_END
        raw = {"wall_raw_s": pass_seconds(passes, adjust=False), "setup_raw_s": setup_raw}
        report["passes"] = passes
    else:
        quads = functools.cache(oracle.quads_total)
        work = {
            "counting.count_rainbow_fast": lambda a, r: quads(a["c"].n),
            "counting.count_rainbow_naive": lambda a, r: quads(a["c"].n),
            "search.exhaustive_ar": lambda a, r: oracle.canonical_colorings(a["n"], a["k"]),
            "search.local_search": lambda a, r: r.moves,
        }
        plain, _ = runner.timed(args.seconds / 2)
        traced, tracers = runner.timed(args.seconds / 2, functions, work)
        overhead = pass_seconds(traced) - pass_seconds(plain)
        metrics = layer_metrics([t.totals() for t in tracers], layer_peaks, overhead)
        units = PER_LAYER
        raw = {"trace.overhead_raw_s": pass_seconds(traced, adjust=False) - pass_seconds(plain, adjust=False)}
        report["passes"] = {"untraced": plain, "traced": traced}
        # the first traced pass's spans; later passes repeat the same calls
        with open(work_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracers[0].spans:
                fh.write(json.dumps([s.index, s.parent, s.job, s.name, s.start, s.end, s.busy, s.self_s, s.work]) + "\n")

    error_rate = runner.failed / runner.attempted
    if runner.failed:
        print(f"first failure: {runner.first_failure}", file=sys.stderr)
    report["metrics"] = metrics
    report["raw"] = raw
    report["error_rate"] = error_rate
    (work_dir / f"result-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print("context " + json.dumps(ctx, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in raw.items():
        print(f"{name} {value:.6g} s")
    print(f"error_rate {error_rate:.6g} ({runner.failed} failed of {runner.attempted} attempted)")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
