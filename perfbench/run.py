"""Run one schurgrid benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from anywhere; it benchmarks the source tree beside this directory
(src/schurgrid) and exits with status 2, printing no result, when there is
none. Each workload runs in a fresh worker process, so the package's index
caches and the process RSS start cold. With --trace 0 the end-to-end
metrics are printed, and six more fresh processes time the set-up alone:
setup_s is the median of those and the worker's own set-up. wall_s and
setup_s are rescaled to a reference machine speed by a calibration loop
run around and, every 0.2 s, during the timed spans (speed.py); the raw times are printed beside
them and kept in the record. With --trace 1
the per-layer metrics of a traced run are printed instead.

Metric names and units come from BENCHMARK.json. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics. The
full record (seed, per-pass times, environment, source commit, failures)
is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("grid-ladder", "interval-ladder", "certify-sweep")
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _spawn(args: list[str], deadline: float) -> tuple[float, float, dict]:
    """Run the worker in a fresh process (its own process group, so a timeout can
    stop any pool it started). Returns its set-up time, raw and rescaled to
    the reference speed by the calibrations just before the spawn and just
    after the worker is ready, and its JSON."""
    calibration = speed.calibrate3()
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with status {proc.returncode}")
    res = json.loads(stdout.strip().splitlines()[-1])
    raw = res["ready"] - t_spawn
    scale = speed.REFERENCE_S / ((calibration + res["ready_calibration_s"]) / 2)
    return raw, raw * scale, res


def _source_id() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", name, "--seed", str(seed), "--size", size]
    raw, scaled, res = _spawn([*base, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setup = [(raw, scaled)]
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            raw, scaled, _ = _spawn([*base, "--setup-only"], deadline)
            setup.append((raw, scaled))
    untraced = [p for p in res["passes"] if not p["traced"]]
    values = {
        "wall_s": statistics.median(p["scaled_s"] for p in untraced),
        "wall_raw_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_s": statistics.median(s for _, s in setup),
        "setup_raw_s": statistics.median(r for r, _ in setup),
        "peak_rss_mb": res["peak_rss_mb"],
        "nodes_total": statistics.median_low(p["nodes"] for p in res["passes"]),
        "error_rate": res["failed"] / res["attempted"],
    }
    if trace:
        values.update(res["layers"])
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "setup_samples_s": [r for r, _ in setup],
        "setup_samples_scaled_s": [s for _, s in setup],
        "values": values,
        "absent": res.get("absent", {}),
        "from_reach": res.get("from_reach", []),
        **{k: res[k] for k in ("run_id", "passes", "attempted", "failed", "failures", "env")},
        **_source_id(),
    }
    if trace:
        record["spans_file"] = res["spans_file"]
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["env"]
    print(
        f"# {name} seed={seed} trace={trace} passes={len(res['passes'])} "
        f"attempted={res['attempted']} failed={res['failed']} python={env['python']} "
        f"numpy={env['numpy']} nproc={env['nproc']} commit={record['commit']} "
        f"source_sha256={record['source_sha256'][:16]}"
    )
    shown = list(metrics)
    units = {}
    if not trace:  # printed for people; not declared (they can read 0, or are raw)
        shown += ["wall_raw_s", "setup_raw_s", "nodes_total", "error_rate"]
        units = {"wall_raw_s": "s", "setup_raw_s": "s", "nodes_total": "count", "error_rate": "1"}
    for key in shown:
        unit = metrics[key]["unit"] if key in metrics else units[key]
        print(f"{key:32s} {values[key]!s:>22} {unit}")
    if res.get("from_reach"):
        print(f"# not reached by {name}, so timed on the tiny instances of the other workloads: "
              + ", ".join(res["from_reach"]))
    for key, why in record["absent"].items():
        print(f"{key:32s} {'absent':>22} ({why})")
    for line in res["failures"]:
        print(f"FAILED {line}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs a few small instances, for smoke tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "schurgrid" / "__init__.py").is_file():
        print(f"error: no schurgrid source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.size, spec)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
