"""One workload run in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Imports schurgrid from src/ beside this directory, builds the workload's
instance list, then repeats timed passes until their total reaches
--seconds, clearing the package's index caches before each pass. A pass's
time is kept raw and rescaled to the reference machine speed (speed.py). Each
pass's answers are checked right after it, outside the timed region. With
--trace 1, passes alternate untraced and traced, and single-layer probes
follow; the spans go to perfbench/out/. Prints one JSON object on stdout.
``ready`` is the CLOCK_MONOTONIC reading at the first timed call, so the
parent can compute the set-up time from its own spawn time, and
``ready_calibration_s`` a calibration run right after it (see speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import uuid
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# Which spans show that a run reaches the layer a per-layer metric measures.
# "search.scan" marks record-hook spans, "solutions.index" either index build.
_SEARCH = ("search.calls", "search.nodes_witness", "search.nodes_exhaustion", "search.witness_s",
           "search.exhaustion_s", "search.nodes_per_s", "search.nodes_per_conclusion")
SOURCES = {
    **dict.fromkeys(_SEARCH, "search.scan"),
    "search.prepare_s": "bench.probe.prepare",
    "grid.enumerate_solutions_s": "bench.probe.enumerate",
    "solutions.grid_build_s": "solutions.grid_index",
    "solutions.interval_build_s": "solutions.interval_index",
    "solutions.triples": "solutions.index",
    "solutions.index_bytes": "solutions.index",
    "solutions.find_rainbow_s": "solutions.find_rainbow_solution",
    "constructions.lower_bound_s": "constructions.lower_bound_coloring",
    "constructions.valuation_s": "constructions.valuation_coloring",
    "certificates.to_json_s": "certificates.Certificate.to_json",
    "certificates.json_bytes": "certificates.Certificate.to_json",
    "certificates.from_json_s": "certificates.Certificate.from_json",
    "certificates.verify_s": "certificates.Certificate.verify",
    "store.put_s": "store.cache_put",
    "store.file_bytes": "store.cache_put",
    "store.get_s": "store.cache_get",
    "store.get_calls": "store.cache_get",
    "analyzer.report_s": "analyzer.structure_report",
    "analyzer.reports": "analyzer.structure_report",
}
_INDEX_SPANS = ("solutions.grid_index", "solutions.interval_index")


def reached(spans: list[dict]) -> set[str]:
    out = set()
    for s in spans:
        out.add(s["name"])
        if s.get("kind"):
            out.add("search.scan")
        if s["name"] in _INDEX_SPANS:
            out.add("solutions.index")
    return out


def subtree_layers(spans: list[dict], self_t: dict[int, float], root: int) -> dict[str, float]:
    """Per-layer numbers from the spans below one root (a pass or a probe)."""
    below = tracing.descendants(spans, root)
    by: dict[str, list[dict]] = defaultdict(list)
    for s in below:
        by[s["name"]].append(s)

    def busy(name: str) -> float:
        return sum(self_t[s["id"]] for s in by[name])

    def total(names: tuple[str, ...], attr: str) -> int:
        return sum(s.get(attr, 0) for name in names for s in by[name])

    def probe_busy(name: str) -> float:
        return sum(self_t[c["id"]] for p in by[name] for c in tracing.descendants(spans, p["id"]))

    wit = [s for s in by["search.exists_rainbow_free"] if s.get("kind") == "witness"]
    exh = [s for s in by["search.exists_rainbow_free"] if s.get("kind") == "exhaustion"]
    nodes_w = sum(s["nodes"] for s in wit)
    nodes_e = sum(s["nodes"] for s in exh)
    wit_s = sum(self_t[s["id"]] for s in wit)
    exh_s = sum(self_t[s["id"]] for s in exh)
    return {
        "search.calls": len(wit) + len(exh),
        "search.nodes_witness": nodes_w,
        "search.nodes_exhaustion": nodes_e,
        "search.witness_s": wit_s,
        "search.exhaustion_s": exh_s,
        "search.nodes_per_s": (nodes_w + nodes_e) / (wit_s + exh_s) if wit or exh else 0.0,
        "search.nodes_per_conclusion": (nodes_w + nodes_e) / len(wit + exh) if wit or exh else 0.0,
        "search.prepare_s": probe_busy("bench.probe.prepare"),
        "grid.enumerate_solutions_s": probe_busy("bench.probe.enumerate"),
        "solutions.grid_build_s": busy("solutions.grid_index"),
        "solutions.interval_build_s": busy("solutions.interval_index"),
        "solutions.triples": total(_INDEX_SPANS, "triples"),
        "solutions.index_bytes": total(_INDEX_SPANS, "bytes"),
        "solutions.find_rainbow_s": busy("solutions.find_rainbow_solution"),
        "constructions.lower_bound_s": busy("constructions.lower_bound_coloring"),
        "constructions.valuation_s": busy("constructions.valuation_coloring"),
        "certificates.to_json_s": busy("certificates.Certificate.to_json"),
        "certificates.from_json_s": busy("certificates.Certificate.from_json"),
        "certificates.verify_s": busy("certificates.Certificate.verify"),
        "certificates.json_bytes": total(("certificates.Certificate.to_json",), "bytes"),
        "store.put_s": busy("store.cache_put"),
        "store.get_s": busy("store.cache_get"),
        "store.get_calls": len(by["store.cache_get"]),
        "analyzer.report_s": busy("analyzer.structure_report"),
        "analyzer.reports": len(by["analyzer.structure_report"]),
    }


def layer_metrics(spans: list[dict], passes: list[dict], reach_bytes: int, two_worker) -> tuple[dict, list, dict]:
    """(per-layer values, metrics taken from the reach probe, reasons for
    absent ones) for a traced run. A metric comes from the workload's own
    traced passes and probes when they reach its layer, else from the
    reach probe."""
    self_t = tracing.self_times(spans)
    top = {s["name"]: s["id"] for s in spans if s["parent"] is None}
    traced = [p for p in passes if p["traced"]]
    per_pass = [subtree_layers(spans, self_t, p["root"]) for p in traced]
    own_probe = subtree_layers(spans, self_t, top["bench.probe.own"])
    reach = subtree_layers(spans, self_t, top["bench.probe.reach"])
    own_spans = [s for root in [p["root"] for p in traced] + [top["bench.probe.own"]]
                 for s in tracing.descendants(spans, root)]
    own_reached = reached(own_spans)
    file_bytes = statistics.median_low(p.get("file_bytes", 0) for p in traced)
    own = {k: statistics.median(v[k] for v in per_pass) + own_probe[k] for k in own_probe}
    own["store.file_bytes"] = file_bytes
    reach["store.file_bytes"] = reach_bytes
    layers, from_reach = {}, []
    for k in own:
        if SOURCES[k] in own_reached:
            layers[k] = own[k]
        else:
            layers[k] = reach[k]
            from_reach.append(k)
    layers["nodes_total"] = statistics.median_low(p["nodes"] for p in traced)
    layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in passes if not p["traced"]
    )
    absent = {}
    if two_worker is None:
        absent["search.two_worker_*"] = "SearchBudget has no threads field"
    else:
        one = statistics.median(two_worker["times"][1])
        two = statistics.median(two_worker["times"][2])
        layers["search.one_worker_s"] = one
        layers["search.two_worker_s"] = two
        layers["search.two_worker_nodes"] = two_worker["nodes"][2]
        layers["search.two_worker_speedup"] = one / two
    return layers, from_reach, absent


def run(workload, seconds: float, trace: bool, run_id: str, workdir: Path) -> dict:
    checker = workloads.Checker()
    tracer = tracing.Tracer(run_id) if trace else None
    untraced = tracing.NullTracer()
    passes: list[dict] = []
    failures: list[str] = []
    attempted = 0
    spent = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        t = tracer if traced else untraced
        workloads.clear_index_caches()
        # traced passes calibrate only at their ends, so that no calibration
        # lands inside a span; their times give trace.overhead_s, raw
        with t.span("bench.pass", index=len(passes)) as root, speed.Clock(None if traced else speed.TICK_S) as clock:
            counts, outputs = workload.run_pass(t)
        passes.append({"traced": traced, "wall_s": clock.raw_s, "scaled_s": clock.scaled_s,
                       "calibrations": clock.calibrations, "root": root.get("id"), **counts})
        spent += clock.raw_s
        attempted += len(outputs)
        failures += workload.check(outputs, checker)
        del outputs
        if spent >= seconds and (not trace or len(passes) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"passes": passes, "peak_rss_mb": peak_rss_mb}
    if trace:
        with tracer.span("bench.probe.own"):
            probe_ops, probe_failures = workload.probes(tracer)
        workloads.clear_index_caches()
        with tracer.span("bench.probe.reach"):
            reach_ops, reach_failures, reach_bytes = workloads.reach_probe(workload, tracer, checker, workdir)
        two_worker, tw_failures = workloads.two_worker_probe(tracer)
        attempted += probe_ops + reach_ops
        if two_worker is not None:
            attempted += sum(len(t) for t in two_worker["times"].values())
        failures += probe_failures + reach_failures + tw_failures
        out["layers"], out["from_reach"], out["absent"] = layer_metrics(
            tracer.spans, passes, reach_bytes, two_worker
        )
        out["spans"] = len(tracer.spans)
        out["spans_file"] = str(OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl")
        tracer.write(Path(out["spans_file"]))
    out.update(attempted=attempted, failed=len(failures), failures=failures[:20])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    run_id = f"{args.workload}-seed{args.seed}-{uuid.uuid4().hex[:8]}"
    workdir = OUT / f"work-{run_id}"
    workload = workloads.make(args.workload, args.seed, args.size, workdir)
    ready = time.monotonic()
    result = {"ready": ready, "ready_calibration_s": speed.calibrate3(), "run_id": run_id}
    if not args.setup_only:
        try:
            result.update(run(workload, args.seconds, bool(args.trace), run_id, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result["env"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
