"""Self-test of the benchmark: python3 -m pytest bench

Runs every workload on the tiny grid and checks the result line, and checks
the benchmark's own routes to expected values against the library's
independent routes. Asserts no timing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, public_functions  # noqa: E402

from sidonrainbow import cli, counting, search  # noqa: E402
from sidonrainbow.core import Domain, random_coloring  # noqa: E402
from sidonrainbow.enumeration import total_quads_formula  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_grid_result_line(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--grid", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert f"error_rate 0 (0 failed of {result['attempted']} attempted)" in proc.stdout


def test_declared_metrics_match_the_script():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "count", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("n", sorted(workloads.AR4))
def test_pinned_search_values_two_routes(n):
    assert oracle.brute_force_ar4(n) == (workloads.AR4[n], workloads.FOX_SPOT[n])
    assert search.exhaustive_ar(n, 4).best_count == workloads.AR4[n]
    assert search.fox_spot_check(n) is workloads.FOX_SPOT[n]


def test_oracle_counts_match_library_oracles():
    for n, k, seed in [(30, 4, 1), (57, 5, 2), (100, 8, 3), (120, 16, 4), (64, 32, 5)]:
        c = random_coloring(n, k, seed)
        assert list(c.colors) == oracle.random_colors(n, k, seed)
        assert oracle.rainbow_interval(list(c.colors), k) == counting.count_rainbow_naive(c).rainbow
        cc = random_coloring(n, k, seed, Domain.CYCLIC)
        assert oracle.rainbow_cyclic(list(cc.colors), k) == counting.count_rainbow_cyclic_naive(cc)
    for n in range(1, 40):
        assert oracle.quads_total(n) == total_quads_formula(n)
        assert oracle.canonical_colorings(n, 4) == search.canonical_coloring_count(n, 4)


def test_oracle_matches_energy_route_at_full_size():
    c = random_coloring(20000, 4, 11)
    assert oracle.rainbow_interval(list(c.colors), 4) == counting.rainbow_via_energy(c)


@pytest.mark.parametrize("n,k,seed,restarts,moves", [(20, 4, 1, 4, 5), (30, 5, 3, 3, 100), (25, 6, 0, 5, 1000)])
def test_local_search_replay_matches_library(n, k, seed, restarts, moves):
    result = search.local_search(n, k, seed, restarts, moves)
    assert oracle.local_search_best(n, k, seed, restarts, moves) == (result.best_count, result.moves)


def test_tracer_patches_imported_bindings_and_nests_spans(capsys):
    original = counting.count_rainbow_fast
    tracer = Tracer({})
    with tracer.patched(public_functions()):
        assert cli.count_rainbow_fast is not original
        assert cli.main(["total", "--n", "8"]) == 0
    assert cli.count_rainbow_fast is original
    assert capsys.readouterr().out == "22 22 22 OK\n"
    spans = {s.name: s for s in tracer.spans}
    main, quads = spans["cli.main"], spans["enumeration.enumerate_quads"]
    assert quads.parent == main.index
    assert main.child >= quads.busy > 0
    assert 0 <= main.self_s <= main.busy
