"""Tests of the benchmark itself: its failure counter, its plain re-checks,
seed handling, and a tiny-size smoke run of every workload.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the package's default test collection.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402
from schurgrid import Certificate, Coloring, GridDims, enumerate_solutions  # noqa: E402
from schurgrid.solutions import IntervalSolutionIndex  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_grid_ladder(monkeypatch, tmp_path, corrupt) -> dict:
    """One tiny grid-ladder run whose rb_search results pass through corrupt."""
    real = workloads.rb_search
    monkeypatch.setattr(workloads, "rb_search", lambda dims, **kw: corrupt(real(dims, **kw)))
    wl = workloads.make("grid-ladder", 1, "tiny", tmp_path)
    return worker.run(wl, 0.0, False, "selftest", tmp_path)


def test_error_rate_counts_a_corrupted_witness(monkeypatch, tmp_path):
    def corrupt(res):
        wit = res.witness
        # colors 1, 2, ..., r, r, r row-major: exact, and (1,1) + (1,2) = (2,3)
        # is rainbow on every tiny grid
        cells = tuple(min(k + 1, wit.r) for k in range(wit.dims.cell_count))
        res.witness = Certificate(
            "witness", wit.dims, wit.r, Coloring(wit.dims, cells, wit.r), wit.nodes, wit.engine
        )
        return res

    out = _run_grid_ladder(monkeypatch, tmp_path, corrupt)
    assert out["failed"] / out["attempted"] > 0
    assert out["failed"] == out["attempted"]
    assert all("rainbow triple" in f for f in out["failures"])


def test_error_rate_counts_a_wrong_rb(monkeypatch, tmp_path):
    def corrupt(res):
        res.rb_value += 1
        return res

    out = _run_grid_ladder(monkeypatch, tmp_path, corrupt)
    assert out["failed"] / out["attempted"] > 0
    assert all("expected" in f for f in out["failures"])


def test_error_rate_counts_an_exception(monkeypatch, tmp_path):
    def corrupt(res):
        raise RuntimeError("engine fault")

    out = _run_grid_ladder(monkeypatch, tmp_path, corrupt)
    assert out["failed"] == out["attempted"] > 0


def test_checker_rejects_an_inexact_witness():
    dims = GridDims(2, 3)
    assert workloads.Checker().witness_problem(dims, 5, (1, 1, 1, 1, 1, 1), False) is not None


@pytest.mark.parametrize("m,n", [(2, 2), (2, 5), (3, 4), (4, 4), (3, 7)])
def test_plain_grid_triples_match_enumerate_solutions(m, n):
    dims = GridDims(m, n)
    ref = {
        (dims.flat(t.alpha), dims.flat(t.beta), dims.flat(t.gamma))
        for t in enumerate_solutions(dims)
        if not t.degenerate
    }
    plain = {(min(a, b), max(a, b), g) for a, b, g in workloads.grid_triples(m, n)}
    assert plain == ref


@pytest.mark.parametrize("n", [1, 2, 3, 10, 33])
def test_plain_interval_triples_match_the_index(n):
    ref = {
        (t.alpha.j - 1, t.beta.j - 1, t.gamma.j - 1)
        for t in IntervalSolutionIndex(n).triples()
        if not t.degenerate
    }
    assert set(workloads.interval_triples(n)) == ref


@pytest.mark.parametrize("name", ["grid-ladder", "interval-ladder"])
def test_second_seed_leaves_nodes_unchanged(name, tmp_path):
    counts = [
        workloads.make(name, seed, "tiny", tmp_path).run_pass(tracing.NullTracer())[0]
        for seed in (1, 2)
    ]
    assert counts[0]["nodes"] == counts[1]["nodes"] > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "start": 2.0, "end": 5.0},
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(6.0)


def test_clock_calibrates_during_a_pass_and_leaves_it_out():
    t0 = time.perf_counter()
    with speed.Clock(0.05) as clock:
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
    total = time.perf_counter() - t0
    assert clock.calibrations >= 4
    assert 0 < clock.raw_s < total
    assert clock.scaled_s > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_clock_without_ticks_calibrates_only_at_its_ends():
    with speed.Clock(None) as clock:
        time.sleep(0.05)
    assert clock.calibrations == 1
    assert clock.raw_s >= 0.05


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_smoke_run(name, trace):
    proc = _bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    # every time is measured on every workload, through the reach probe
    # where the workload's own passes do not reach the layer
    assert all(m["value"] != 0 for m in result["metrics"].values() if m["unit"] == "s")


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "grid-ladder", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
