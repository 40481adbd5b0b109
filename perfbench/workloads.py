"""The benchmark's workloads: fixed instance sets, one timed pass each, and
the independent checks of every answer a pass produced.

The seed only reorders instances and cache lookups; the instance sets are
fixed, so node counts do not depend on it. Each workload times calls into
schurgrid's public functions, wrapped in spans when tracing is on.

An op is one rb instance (ladders) or one certificate (certify-sweep). An op
fails on a wrong answer, a witness that fails the plain re-check below, a
search cut by its budget, or an exception.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Iterator, Optional

from schurgrid import (
    ENGINE_VERSION,
    INTERVAL_ENGINE_VERSION,
    Certificate,
    GridDims,
    SearchBudget,
    enumerate_solutions,
    exists_rainbow_free,
    find_rainbow_solution,
    grid_index,
    interval_index,
    lower_bound_coloring,
    rb_search,
    rb_search_interval,
    valuation_coloring,
)
from schurgrid.analyzer import structure_report
from schurgrid.solutions import IntervalSolutionIndex
from schurgrid.store import cache_get, cache_put

# The ladders are sized so that one pass takes about 10-20 s on a 2-core
# machine: long enough for a steady wall time, and dominated by the search
# inner loop. Interval n = 26 alone is most of its ladder, because 16..24
# finish in about 4 s, too short to be steady.
GRID_LADDER = {
    "full": [(3, 5), (4, 4), (2, 8), (3, 6), (4, 5), (2, 9), (3, 7)],
    "tiny": [(2, 3), (3, 3), (2, 4)],
}
INTERVAL_LADDER = {"full": [16, 20, 22, 24, 26], "tiny": [6, 8, 10]}
# (largest grid side N, valuation lengths): every grid 2 <= m <= n <= N.
CERTIFY_SWEEP = {"full": (24, (100, 1000, 4096)), "tiny": (5, (16, 100))}

# The parallel-search probe: an exhaustion (rb(4x5) = 10), so every subtree runs.
TWO_WORKER_DIMS = GridDims(4, 5)
TWO_WORKER_R = 10


def clear_index_caches() -> None:
    """Drop the package's memoized solution indexes so a pass starts cold."""
    for fn in (grid_index, interval_index):
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            clear()


def index_bytes(index) -> int:
    """Bytes held in the index's numpy arrays (computed from array sizes)."""
    total = 0
    for attr in ("alpha", "beta", "gamma", "degenerate"):
        arr = getattr(index, attr, None)
        total += int(getattr(arr, "nbytes", 0))
    return total


# ---------------------------------------------------------------------------
# independent answer checks: plain loops, never the numpy index under test


def grid_triples(m: int, n: int) -> Iterator[tuple[int, int, int]]:
    """Flat row-major ids (alpha, beta, alpha + beta) of every solution with
    alpha != beta inside [m]x[n]. A pair in one row may appear in both
    orders, which a rainbow test does not mind."""
    for i1 in range(1, m):
        for i2 in range(i1, m - i1 + 1):
            gi = i1 + i2
            for j1 in range(1, n):
                for j2 in range(1, n - j1 + 1):
                    if i1 == i2 and j1 == j2:
                        continue
                    yield (i1 - 1) * n + j1 - 1, (i2 - 1) * n + j2 - 1, (gi - 1) * n + j1 + j2 - 1


def interval_triples(n: int) -> Iterator[tuple[int, int, int]]:
    """0-based ids (a, b, a + b) of every a + b = c in [n] with a < b."""
    for a in range(1, n // 2 + 1):
        for b in range(a + 1, n - a + 1):
            yield a - 1, b - 1, a + b - 1


def first_rainbow(cells, triples) -> Optional[tuple[int, int, int]]:
    for a, b, g in triples:
        ca, cb, cg = cells[a], cells[b], cells[g]
        if ca != cb and ca != cg and cb != cg:
            return a, b, g
    return None


def closed_form_rb(dims: GridDims, interval: bool) -> int:
    """m + n + 1 on grids with m >= 2; floor(log2 n) + 2 on [n], n >= 3."""
    return dims.n.bit_length() + 1 if interval else dims.m + dims.n + 1


class Checker:
    """Plain re-checks of witness colorings, each distinct one scanned once."""

    def __init__(self):
        self._seen: dict[tuple, Optional[str]] = {}

    def witness_problem(self, dims: GridDims, r: int, cells, interval: bool) -> Optional[str]:
        key = (interval, dims.m, dims.n, r, tuple(cells))
        if key not in self._seen:
            self._seen[key] = self._problem(dims, r, key[4], interval)
        return self._seen[key]

    @staticmethod
    def _problem(dims: GridDims, r: int, cells: tuple, interval: bool) -> Optional[str]:
        if len(cells) != dims.m * dims.n:
            return f"{len(cells)} cells on {dims.m}x{dims.n}"
        if set(cells) != set(range(1, r + 1)):
            return f"not an exact {r}-coloring"
        if interval and dims.m != 1:
            return "interval witness on a grid"
        triples = interval_triples(dims.n) if interval else grid_triples(dims.m, dims.n)
        hit = first_rainbow(cells, triples)
        return None if hit is None else f"rainbow triple at cells {hit}"


# ---------------------------------------------------------------------------
# workloads


class Ladder:
    """rb by exhaustive search, with default settings, on a fixed ladder."""

    def __init__(self, name: str, instances: list[GridDims], interval: bool, seed: int):
        self.name = name
        self.seed = seed
        self.interval = interval
        self.instances = random.Random(seed).sample(instances, len(instances))

    def run_pass(self, tracer) -> tuple[dict, list]:
        """One pass; returns (counts, outputs). counts["nodes"] sums
        Certificate.nodes over every certificate the pass computed."""
        fn_name = "search.rb_search_interval" if self.interval else "search.rb_search"
        nodes = 0
        outputs = []
        for dims in self.instances:
            certs: list[Certificate] = []
            with tracer.span(fn_name, m=dims.m, n=dims.n):
                mark = [time.perf_counter()]

                def record(cert: Certificate) -> None:
                    # the scan calls this right after each exists_rainbow_free
                    now = time.perf_counter()
                    tracer.add(
                        "search.exists_rainbow_free", mark[0], now,
                        kind=cert.kind, r=cert.r, nodes=cert.nodes,
                    )
                    mark[0] = now
                    certs.append(cert)

                try:
                    if self.interval:
                        res = rb_search_interval(dims.n, record=record)
                    else:
                        res = rb_search(dims, record=record)
                except Exception as exc:  # a failed op; the pass goes on
                    res = exc
            nodes += sum(c.nodes for c in certs)
            outputs.append((dims, res))
        return {"nodes": nodes}, outputs

    def check(self, outputs: list, checker: Checker) -> list[str]:
        failures = []
        for dims, res in outputs:
            problem = self._problem(dims, res, checker)
            if problem is not None:
                failures.append(f"{self.name} {dims.m}x{dims.n}: {problem}")
        return failures

    def _problem(self, dims: GridDims, res, checker: Checker) -> Optional[str]:
        if isinstance(res, BaseException):
            return f"exception {res!r}"
        if not res.complete:
            return f"budget exceeded, rb in [{res.lo}, {res.hi}]"
        want = closed_form_rb(dims, self.interval)
        if res.rb_value != want:
            return f"rb = {res.rb_value}, expected {want}"
        wit, exh = res.witness, res.exhaustion
        if wit is None or wit.kind != "witness" or wit.r != want - 1 or wit.coloring is None:
            return "missing witness certificate at rb - 1"
        if wit.coloring.dims != dims:
            return "witness on other dimensions"
        problem = checker.witness_problem(dims, wit.r, wit.coloring.cells, self.interval)
        if problem is not None:
            return f"witness: {problem}"
        if exh is None or exh.kind != "exhaustion" or exh.r != want or exh.coloring is not None:
            return "missing exhaustion certificate at rb"
        return None

    def probes(self, tracer) -> tuple[int, list[str]]:
        """Traced single-layer probes on this ladder's instances. Returns
        (ops attempted, failures); the timings are read back from the spans."""
        failures = []
        with tracer.span("bench.probe.prepare"):
            for dims in self.instances:
                clear_index_caches()
                with tracer.span("search.exists_rainbow_free", r=1):
                    cert = exists_rainbow_free(dims, 1, interval=self.interval)
                if cert.kind != "witness":
                    failures.append(f"{self.name} {dims.m}x{dims.n}: r = 1 not a witness")
        with tracer.span("bench.probe.enumerate"):
            for dims in self.instances:
                if self.interval:
                    with tracer.span("solutions.IntervalSolutionIndex.triples"):
                        IntervalSolutionIndex(dims.n).triples()
                else:
                    with tracer.span("grid.enumerate_solutions"):
                        enumerate_solutions(dims)
        clear_index_caches()
        with tracer.span("bench.probe.index"):
            for dims in self.instances:
                if self.interval:
                    with tracer.span("solutions.interval_index") as rec:
                        idx = interval_index(dims.n)
                else:
                    with tracer.span("solutions.grid_index") as rec:
                        idx = grid_index(dims.m, dims.n)
                rec["triples"] = len(idx)
                rec["bytes"] = index_bytes(idx)
        return len(self.instances), failures


class CertifySweep:
    """Witness certificates built by the closed-form constructions, stored,
    read back, re-verified and analyzed. No search runs."""

    name = "certify-sweep"

    def __init__(self, top: int, lengths: tuple[int, ...], seed: int, workdir: Path):
        self.seed = seed
        rng = random.Random(seed)
        keys = [("grid", GridDims(m, n)) for m in range(2, top + 1) for n in range(m, top + 1)]
        keys += [("interval", GridDims(1, n)) for n in lengths]
        self.build_order = rng.sample(keys, len(keys))
        self.lookup_order = rng.sample(keys, len(keys))
        self.path = workdir / "certs.jsonl"

    def run_pass(self, tracer) -> tuple[dict, list]:
        """One pass; returns (counts, outputs). counts["file_bytes"] is the
        size the certificate file reached."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.unlink(missing_ok=True)
        ops: dict = {}
        for key in self.build_order:
            ops[key] = op = {}
            try:
                self._build(key, op, tracer)
            except Exception as exc:  # a failed op; the pass goes on
                op["error"] = repr(exc)
        # every index is rebuilt on first use below, as in a fresh verifier
        clear_index_caches()
        for key in self.lookup_order:
            op = ops[key]
            try:
                self._read_back(key, op, tracer)
            except Exception as exc:  # a failed op; the pass goes on
                op.setdefault("error", repr(exc))
        file_bytes = self.path.stat().st_size if self.path.exists() else 0
        self.path.unlink(missing_ok=True)
        return {"nodes": 0, "file_bytes": file_bytes}, list(ops.items())

    def _build(self, key, op: dict, tracer) -> None:
        kind, dims = key
        if kind == "grid":
            with tracer.span("solutions.grid_index") as rec:
                idx = grid_index(dims.m, dims.n)
            with tracer.span("constructions.lower_bound_coloring"):
                col = lower_bound_coloring(dims, verify=True)
            engine = ENGINE_VERSION
        else:
            with tracer.span("solutions.interval_index") as rec:
                idx = interval_index(dims.n)
            with tracer.span("constructions.valuation_coloring"):
                col = valuation_coloring(dims.n, verify=True)
            engine = INTERVAL_ENGINE_VERSION
        rec["triples"] = len(idx)
        rec["bytes"] = index_bytes(idx)
        with tracer.span("solutions.find_rainbow_solution"):
            op["hit"] = find_rainbow_solution(col, idx)
        cert = Certificate("witness", dims, col.r, col, 0, engine)
        with tracer.span("certificates.Certificate.to_json") as rec:
            op["text"] = text = cert.to_json()
        rec["bytes"] = len(text)
        with tracer.span("certificates.Certificate.from_json"):
            op["back"] = Certificate.from_json(text)
        with tracer.span("store.cache_put"):
            cache_put(cert, self.path)
        op["cert"] = cert

    def _read_back(self, key, op: dict, tracer) -> None:
        kind, dims = key
        cert = op.get("cert")
        if cert is None:  # the build failed and is already counted
            return
        with tracer.span("store.cache_get"):
            got = cache_get(dims, cert.r, cert.engine, self.path)
        op["got"] = got
        if got is None:
            return
        with tracer.span("certificates.Certificate.verify"):
            op["verified"] = got.verify()
        with tracer.span("analyzer.structure_report"):
            rep = structure_report(got.coloring, interval=kind == "interval")
        op["report"] = (rep["exact"], rep["rainbow_free"])

    def check(self, outputs: list, checker: Checker) -> list[str]:
        failures = []
        for (kind, dims), op in outputs:
            problem = self._problem(kind, dims, op, checker)
            if problem is not None:
                failures.append(f"{self.name} {kind} {dims.m}x{dims.n}: {problem}")
        return failures

    @staticmethod
    def _problem(kind: str, dims: GridDims, op: dict, checker: Checker) -> Optional[str]:
        if "error" in op:
            return f"exception {op['error']}"
        interval = kind == "interval"
        want_r = dims.n.bit_length() if interval else dims.m + dims.n
        cert = op["cert"]
        if cert.r != want_r:
            return f"construction uses {cert.r} colors, expected {want_r}"
        if op["hit"] is not None:
            return f"solution index reports a rainbow triple {op['hit']}"
        if op["back"].to_json() != op["text"]:
            return "JSON round trip changed the certificate"
        got = op.get("got")
        if got is None or got.to_json() != op["text"]:
            return "cache_get did not return the stored certificate"
        if not op.get("verified"):
            return "Certificate.verify rejected the witness"
        if op.get("report") != (True, True):
            return f"structure_report says (exact, rainbow_free) = {op.get('report')}"
        problem = checker.witness_problem(dims, want_r, got.coloring.cells, interval)
        return None if problem is None else f"witness: {problem}"

    def probes(self, tracer) -> tuple[int, list[str]]:
        return 0, []


def two_worker_probe(tracer) -> tuple[Optional[dict], list[str]]:
    """The same exhaustion with threads=2 and threads=1, three times each in
    alternating order. Returns (None, []) when SearchBudget has no threads."""
    try:
        budgets = {2: SearchBudget(threads=2), 1: SearchBudget(threads=1)}
    except TypeError:
        return None, []
    exists_rainbow_free(TWO_WORKER_DIMS, 1)  # index and checks warm for both
    times: dict[int, list[float]] = {1: [], 2: []}
    nodes: dict[int, int] = {}
    failures = []
    with tracer.span("bench.probe.two_worker"):
        for rep in range(3):
            for threads in (2, 1) if rep % 2 == 0 else (1, 2):
                with tracer.span("search.exists_rainbow_free", r=TWO_WORKER_R, threads=threads):
                    t0 = time.perf_counter()
                    cert = exists_rainbow_free(TWO_WORKER_DIMS, TWO_WORKER_R, budgets[threads])
                    times[threads].append(time.perf_counter() - t0)
                nodes[threads] = cert.nodes
                if cert.kind != "exhaustion":
                    failures.append(f"two-worker probe: threads={threads} found a witness at r = 10")
    return {"times": times, "nodes": nodes}, failures


def reach_probe(workload, tracer, checker: Checker, workdir: Path) -> tuple[int, list[str], int]:
    """One pass, with its probes, over the tiny instance sets of the other
    kind of workload, so that a traced run times every layer: certify-sweep
    runs no search, and the ladders build, store and analyze no certificate.
    Returns (ops attempted, failures, bytes of the certificate file)."""
    if isinstance(workload, CertifySweep):
        others = [make(name, workload.seed, "tiny", workdir) for name in ("grid-ladder", "interval-ladder")]
    else:
        others = [make("certify-sweep", workload.seed, "tiny", workdir)]
    attempted, failures, file_bytes = 0, [], 0
    for other in others:
        counts, outputs = other.run_pass(tracer)
        failures += other.check(outputs, checker)
        probe_ops, probe_failures = other.probes(tracer)
        attempted += len(outputs) + probe_ops
        failures += probe_failures
        file_bytes += counts.get("file_bytes", 0)
    return attempted, failures, file_bytes


def make(name: str, seed: int, size: str, workdir: Path):
    """Build a workload's instance list."""
    if name == "grid-ladder":
        return Ladder(name, [GridDims(m, n) for m, n in GRID_LADDER[size]], False, seed)
    if name == "interval-ladder":
        return Ladder(name, [GridDims(1, n) for n in INTERVAL_LADDER[size]], True, seed)
    if name == "certify-sweep":
        top, lengths = CERTIFY_SWEEP[size]
        return CertifySweep(top, lengths, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("grid-ladder", "interval-ladder", "certify-sweep")
