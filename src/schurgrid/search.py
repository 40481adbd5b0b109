"""Exact decision of rainbow-free r-coloring existence, and rb computation.

The engine walks restricted growth strings over one cell order, the main
diagonal first and then the diagonals outward (see assignment_order), so
each color-permutation class is visited exactly once; witnesses and
enumerated colorings are relabeled to the row-major restricted growth
string that coloring.py takes as canonical.

The walk forward checks (Haralick & Elliott, Artificial Intelligence 14,
1980). Each unassigned cell keeps a bitmask domain of the colors it may
still take. When a cell gets color c and a triple through it has one
partner colored d != c and the other unassigned, that partner's domain
narrows to {c, d}; a triple whose partners are both colored was narrowed
this way before, so no assignment from a domain completes a rainbow. A
branch dies when a domain empties, or when fewer unassigned cells keep a
full domain than colors are still unused (a narrowed cell holds only used
colors). Narrowings are undone from a trail. Per cell position, the
partner pairs of the triples it can narrow are precomputed from
SolutionIndex.arrays().

A branch also dies when the unused colors cannot fit among the unassigned
cells by the rainbow definition alone. Let G_k join positions b and c when
some non-degenerate triple has sorted walk positions a < k <= b < c. Once
positions 0..k-1 are colored, cells taking two different unused colors
never share such a triple, since with the used color at a it would be
rainbow; so one cell per unused color forms an independent set in G_k, and
there are at most room[k] of them, the size of a greedy clique cover of
G_k (a clique holds at most one such cell). room is precomputed with the
partner pairs; no law of the paper enters it.

An rb scan searches only the exhaustion at the closed-form rb: the witness
at rb - 1 is the paper's construction (lower_bound_coloring on grids,
valuation_coloring on [n]), canonicalized and re-checked by
Certificate.verify(), so the lower bound rests on an independently verified
coloring and the upper bound on the search. Where no construction applies
(m = 1 grids, [n] with n <= 2) the scan searches downward for the witness,
and a witness at the closed form makes it climb by search.

Multi-worker runs split the tree at a shallow depth into independent
prefix tasks executed in separate processes, each replaying its prefix
through the same propagation; exhaustion requires all tasks to finish,
and a witness stops the other workers at their next budget check. A
SearchBudget bounds the whole public call: every r of an rb scan and
every worker spend from one node count and one deadline.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .certificates import CONSTRUCTION_ENGINE, ENGINE_VERSION, Certificate
from .coloring import Coloring, canonicalize, rgs_relabel
from .constructions import (
    closed_form_rb_grid,
    closed_form_rb_interval,
    lower_bound_coloring,
    valuation_coloring,
)
from .grid import GridDims, diagonal_slice, enumerate_solutions
from .solutions import SolutionIndex, index_for


class BudgetExceeded(Exception):
    """Search stopped by a node or time cap; the result is indeterminate."""

    def __init__(self, nodes: int):
        super().__init__(f"search budget exceeded after {nodes} nodes")
        self.nodes = nodes


@dataclass(frozen=True)
class SearchBudget:
    """Caps on a whole search call, across every r of an rb scan and every
    worker: max_nodes in total and max_seconds from the call's start (0
    stops at the first check), checked once per _FLUSH_EVERY nodes of each
    worker. threads > 1 searches in that many processes; a witness in one
    stops the others."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None
    threads: int = 1


_FLUSH_EVERY = 4096


class _Meter:
    """One public call's budget as it is spent, in shared memory so that
    every r of a scan and every worker process spend from the same pool:
    nodes and prunes by cause so far, the node cap, one absolute deadline
    and a stop flag."""

    def __init__(self, budget: Optional[SearchBudget]):
        budget = budget or SearchBudget()
        self.max_nodes, self.threads = budget.max_nodes, budget.threads
        self.deadline = None if budget.max_seconds is None else time.monotonic() + budget.max_seconds
        self.nodes = multiprocessing.Value("q", 0)  # summed under its lock
        self.prunes = multiprocessing.RawArray("q", 3)  # summed under the nodes' lock
        self.stopped = multiprocessing.RawValue("b", 0)  # set by a witness or a cut

    def add(
        self, nodes: int, empty_domain: int = 0, fresh_capacity: int = 0, independence: int = 0
    ) -> None:
        with self.nodes.get_lock():
            self.nodes.value += nodes
            self.prunes[0] += empty_domain
            self.prunes[1] += fresh_capacity
            self.prunes[2] += independence

    def prune_counts(self) -> dict[str, int]:
        """Candidate colors rejected, by cause: a placement left a domain
        empty; too few unassigned cells keep a full domain for the colors not
        yet used; or enough do, but cells taking distinct unused colors form
        an independent set in G_k, and its clique-cover bound room[k] is too
        small for them (see the module docstring)."""
        return {
            "empty_domain": self.prunes[0],
            "fresh_capacity": self.prunes[1],
            "independence": self.prunes[2],
        }

    def go(self) -> bool:
        """True while the search may go on: not stopped, and the node cap
        and the deadline not reached (reaching either stops the run)."""
        if (
            self.max_nodes is not None and self.nodes.value >= self.max_nodes
            or self.deadline is not None and time.monotonic() > self.deadline
        ):
            self.stopped.value = 1
        return not self.stopped.value


def assignment_order(dims: GridDims) -> list[int]:
    """Flat cell ids in the one assignment order of every search: the main
    diagonal first, then diagonals by (|k - m|, k). Main-diagonal
    contradictions surface early, so the walk visits far fewer nodes than
    row-major would; on a 1-by-n carrier it is row-major."""
    ks = sorted(range(1, dims.diagonal_count + 1), key=lambda k: (abs(k - dims.m), k))
    ids = range(dims.cell_count)
    return [f for k in ks for f in ids[diagonal_slice(k, dims)]]


class _Checks(NamedTuple):
    """What the walk reads per position of one cell order.

    narrow[p] lists the (earlier, later) partner positions of every
    non-degenerate triple whose middle cell sits at position p. Under a
    fixed order only the middle cell's assignment finds one partner colored
    and the other not, so only it can narrow a domain.

    room[k] bounds how many distinct unused colors positions k.. can still
    take once positions 0..k-1 are colored (see _room)."""

    narrow: list[list[tuple[int, int]]]
    room: list[int]


def _build_checks(index: SolutionIndex, order: list[int]) -> _Checks:
    """The walk's per-position tables for the index's triples, from one pass
    over each triple's sorted positions."""
    alpha, beta, gamma, degenerate = index.arrays()
    cells = np.stack([alpha, beta, gamma], axis=1)[~degenerate]
    pos_of = np.empty(len(order), dtype=np.intp)
    pos_of[order] = np.arange(len(order))
    narrow: list[list[tuple[int, int]]] = [[] for _ in order]
    edges: list[list[tuple[int, int]]] = [[] for _ in order]
    for first, middle, last in np.sort(pos_of[cells], axis=1).tolist():
        narrow[middle].append((first, last))
        edges[first].append((middle, last))
    return _Checks(narrow, _room(edges))


def _room(edges: list[list[tuple[int, int]]]) -> list[int]:
    """room[k], k = 0..N, for the (middle, last) position pairs listed under
    each triple's first position: the size of a greedy clique cover of
    positions k..N-1 in G_k, whose edges are the pairs listed under
    positions below k. Cells of distinct unused colors are pairwise
    non-adjacent in G_k, so at most one sits in each clique. The adjacency
    grows by one position's pairs per k; each vertex joins, in ascending
    order, the first clique it is adjacent to in full."""
    ncells = len(edges)
    adj = [0] * ncells  # bitmask of neighbors, by position
    room = [ncells]  # G_0 has no edges
    for k in range(1, ncells + 1):
        for b, c in edges[k - 1]:
            adj[b] |= 1 << c
            adj[c] |= 1 << b
        cliques: list[int] = []  # bitmasks of members
        for v in range(k, ncells):
            near = adj[v]
            for i, q in enumerate(cliques):
                if q & near == q:
                    cliques[i] = q | 1 << v
                    break
            else:
                cliques.append(1 << v)
        room.append(len(cliques))
    return room


def _stream(
    order: list[int],
    checks: _Checks,
    r: int,
    prefix: tuple[int, ...],
    stop_depth: Optional[int],
    meter: _Meter,
) -> Iterator[tuple[int, ...]]:
    """Depth-first walk over canonical colorings, forward checking each
    placement. Yields full flat color tuples, or consistent prefixes of
    length stop_depth when set; the positions of prefix take its colors,
    through the same propagation. Ends early, without a sign, when the
    meter stops or cuts the run."""
    if not meter.go():
        return
    narrow, room = checks
    ncells = len(order)
    full = (2 << r) - 2  # color c is bit 1 << c
    dom = [full] * ncells  # by position: the colors it may still take
    bit = [0] * ncells  # by position: 1 << its color, once assigned
    trail: list[tuple[int, int]] = []  # (position, domain before narrowing)
    # per depth: colors used, unassigned full-domain cells, trail length,
    # candidate bits left (-1 before the depth is entered)
    used_at = [0] * (ncells + 1)
    free_at = [ncells] * (ncells + 1)
    mark = [0] * (ncells + 1)
    cands = [-1] * (ncells + 1)
    base = len(prefix)
    target = ncells if stop_depth is None else stop_depth
    nodes = empty = fresh = indep = 0
    pos = 0
    try:
        while pos >= 0:
            used = used_at[pos]
            cand = cands[pos]
            if cand < 0:
                if pos == target:
                    if stop_depth is not None:
                        yield tuple(bit[p].bit_length() - 1 for p in range(pos))
                    else:
                        cells = [0] * ncells
                        for p, cell in enumerate(order):
                            cells[cell] = bit[p].bit_length() - 1
                        yield tuple(cells)
                    pos -= 1
                    continue
                d = dom[pos]
                cand = d & ((4 << used) - 2)  # the RGS rule: colors 1..used + 1
                if pos < base:
                    cand &= 1 << prefix[pos]
                need = r - used
                if free_at[pos] - (d == full) < need:
                    # a used color here leaves too few cells for the fresh ones
                    fresh += (cand & ~(2 << used)).bit_count()
                    cand &= 2 << used
                elif room[pos + 1] < need:
                    # ... or too few that can hold distinct fresh colors
                    indep += (cand & ~(2 << used)).bit_count()
                    cand &= 2 << used
                mark[pos] = len(trail)
            else:
                keep = mark[pos]
                while len(trail) > keep:
                    q, old = trail.pop()
                    dom[q] = old
            if not cand:
                pos -= 1
                continue
            low = cand & -cand
            cands[pos] = cand ^ low
            bit[pos] = low
            nodes += 1
            free = free_at[pos] - (dom[pos] == full)
            for a, b in narrow[pos]:
                ba = bit[a]
                if ba != low:
                    old = dom[b]
                    new = old & (low | ba)
                    if new != old:
                        if not new:
                            empty += 1
                            break
                        trail.append((b, old))
                        dom[b] = new
                        if old == full:
                            free -= 1
            else:
                newused = used + 1 if low >> used > 1 else used
                if free < r - newused:
                    fresh += 1
                elif room[pos + 1] < r - newused:
                    indep += 1
                else:
                    pos += 1
                    used_at[pos] = newused
                    free_at[pos] = free
                    cands[pos] = -1
            if nodes >= _FLUSH_EVERY:
                meter.add(nodes, empty, fresh, indep)
                nodes = empty = fresh = indep = 0
                if not meter.go():
                    return
    finally:
        meter.add(nodes, empty, fresh, indep)


def _engine(interval: bool, base: str = ENGINE_VERSION) -> str:
    return base + "-interval" if interval else base


_job: tuple = ()  # (order, checks, r, meter) of the search a pool worker runs


def _adopt(*job) -> None:
    """Pool initializer: each worker receives its search once."""
    global _job
    _job = job


def _first_witness(prefix: tuple[int, ...], job: tuple = ()) -> Optional[tuple[int, ...]]:
    """First rainbow-free coloring below prefix, or None when the subtree
    holds none or the run was stopped or cut. A witness stops the run."""
    order, checks, r, meter = job or _job
    gen = _stream(order, checks, r, prefix, None, meter)
    cells = next(gen, None)
    gen.close()
    if cells is not None:
        meter.stopped.value = 1
    return cells


def _search(
    order: list[int],
    checks: _Checks,
    r: int,
    meter: _Meter,
) -> Optional[tuple[int, ...]]:
    """Witness cells, or None for an exhaustion. With one thread the whole
    tree is one in-process task; otherwise it is split at the shallowest
    depth giving 4 prefix tasks per worker. Raises BudgetExceeded when the
    meter cut the run before a witness appeared."""
    job = (order, checks, r, meter)
    meter.stopped.value = 0  # clears a witness stop; a cut stops again at once
    if meter.threads == 1:
        found = [_first_witness((), job)]
    else:
        depth, prefixes = 1, [()]
        while depth < len(order) and len(prefixes) < 4 * meter.threads:
            prefixes = list(_stream(order, checks, r, (), depth, meter))
            depth += 1
        # reading every result drains the pool before it shuts down
        with ProcessPoolExecutor(meter.threads, initializer=_adopt, initargs=job) as pool:
            found = list(pool.map(_first_witness, prefixes))
    witness = next((cells for cells in found if cells is not None), None)
    if witness is None and meter.stopped.value:  # stopped without a witness: cut
        raise BudgetExceeded(meter.nodes.value)
    return witness


def _decide(dims: GridDims, r: int, meter: _Meter, interval: bool) -> Certificate:
    index = index_for(dims, interval)  # checks the carrier, even at r = cap + 1
    cap = dims.cell_count
    if r == cap + 1:
        # no exact coloring uses more colors than cells, so exhaustion is
        # vacuously true (the convention boundary r = |S| + 1)
        return Certificate("exhaustion", dims, r, None, 0, _engine(interval))
    if not 1 <= r <= cap:
        raise ValueError(f"color count {r} outside [1, {cap + 1}]")
    cell_order = assignment_order(dims)
    checks = _build_checks(index, cell_order)
    spent = meter.nodes.value
    witness = _search(cell_order, checks, r, meter)
    nodes = meter.nodes.value - spent
    if witness is not None:
        coloring = Coloring(dims, rgs_relabel(witness), r)
        return Certificate("witness", dims, r, coloring, nodes, _engine(interval))
    return Certificate("exhaustion", dims, r, None, nodes, _engine(interval))


def exists_rainbow_free(
    dims: GridDims,
    r: int,
    budget: Optional[SearchBudget] = None,
    interval: bool = False,
) -> Certificate:
    """Witness certificate with a rainbow-free exact r-coloring, or an
    exhaustion certificate stating none exists. Raises BudgetExceeded when
    the budget cut the search before either could be concluded."""
    return _decide(dims, r, _Meter(budget), interval)


def enumerate_rainbow_free(
    dims: GridDims,
    r: int,
    budget: Optional[SearchBudget] = None,
    interval: bool = False,
) -> Iterator[Coloring]:
    """Every canonical rainbow-free exact r-coloring, each class once.
    A budget cut raises BudgetExceeded mid-stream (truncation marker)."""
    meter = _Meter(budget)
    cap = dims.cell_count
    if not 1 <= r <= cap:
        raise ValueError(f"color count {r} outside [1, {cap}]")
    cell_order = assignment_order(dims)
    checks = _build_checks(index_for(dims, interval), cell_order)
    for cells in _stream(cell_order, checks, r, (), None, meter):
        yield Coloring(dims, rgs_relabel(cells), r)
    if meter.stopped.value:
        raise BudgetExceeded(meter.nodes.value)


def _partitions_into_blocks(n_items: int, r: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of n_items ordered items into exactly r blocks,
    as restricted growth strings, with no search pruning."""
    assign: list[int] = []

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == n_items:
            if used == r:
                yield tuple(assign)
            return
        for b in range(1, min(used + 1, r) + 1):
            assign.append(b)
            yield from rec(i + 1, used + 1 if b > used else used)
            assign.pop()

    yield from rec(0, 0)


def naive_oracle(dims: GridDims, r: int, interval: bool = False) -> Certificate:
    """Reference decision by unpruned enumeration of all exact r-colorings
    (set partitions into r blocks), each checked by a plain triple scan.
    The triples come from grid.enumerate_solutions or a plain a + b = c
    loop, never from the solution index the search uses. Test-only;
    hard-capped at 10 cells."""
    cap = dims.cell_count
    if cap > 10:
        raise ValueError(f"naive oracle capped at 10 cells, got {cap}")
    if not 1 <= r <= cap:
        raise ValueError(f"color count {r} outside [1, {cap}]")
    if interval:
        n = dims.n
        trips = [(a - 1, b - 1, a + b - 1) for a in range(1, n) for b in range(a + 1, n - a + 1)]
    else:
        trips = [
            (dims.flat(t.alpha), dims.flat(t.beta), dims.flat(t.gamma))
            for t in enumerate_solutions(dims)
            if not t.degenerate
        ]
    examined = 0
    for cells in _partitions_into_blocks(cap, r):
        examined += 1
        rainbow = False
        for a, b, g in trips:
            ca, cb, cg = cells[a], cells[b], cells[g]
            if ca != cb and ca != cg and cb != cg:
                rainbow = True
                break
        if not rainbow:
            coloring = Coloring(dims, cells, r)
            return Certificate("witness", dims, r, coloring, examined, _engine(interval))
    return Certificate("exhaustion", dims, r, None, examined, _engine(interval))


@dataclass
class RbResult:
    dims: GridDims
    rb_value: Optional[int]
    witness: Optional[Certificate]  # for rb - 1
    exhaustion: Optional[Certificate]  # for rb
    complete: bool = True
    lo: Optional[int] = None  # bracketing bounds when the budget cut the run
    hi: Optional[int] = None
    interval: bool = False
    nodes: int = 0  # spent by the whole scan, cut or complete
    prunes: dict[str, int] = field(default_factory=dict)  # _Meter.prune_counts of the scan


def _construction(dims: GridDims, interval: bool) -> Optional[Coloring]:
    """The paper's rainbow-free coloring with closed-form rb - 1 colors, or
    None where none applies (m = 1 grids, [n] with n <= 2)."""
    if interval:
        return valuation_coloring(dims.n) if dims.n >= 3 else None
    return lower_bound_coloring(dims, verify=False) if dims.m >= 2 else None


def _construction_witness(dims: GridDims, r: int, interval: bool) -> Optional[Certificate]:
    """The construction as a row-major canonical witness certificate at r,
    or None unless Certificate.verify() passes: exact with r colors, and
    rainbow-free."""
    coloring = _construction(dims, interval)
    if coloring is None:
        return None
    cert = Certificate(
        "witness", dims, r, canonicalize(coloring), 0, _engine(interval, CONSTRUCTION_ENGINE)
    )
    return cert if cert.verify() else None


def _rb_scan(
    dims: GridDims,
    budget: Optional[SearchBudget],
    interval: bool,
    guess: int,
    fetch=None,
    record=None,
) -> RbResult:
    """Scan r from the closed-form guess. The construction's verified
    witness stands for r = guess - 1, so the first search is the exhaustion
    at guess; a witness there climbs by search, and without a construction
    an exhaustion descends by search. fetch(r) may supply a precomputed
    Certificate (cache hook); record(cert) is called for every freshly
    computed one, the construction's included."""
    cap = dims.cell_count
    meter = _Meter(budget)
    certs: dict[int, Certificate] = {}

    def cert_at(rr: int) -> Certificate:
        if rr not in certs:
            cached = fetch(rr) if fetch is not None else None
            if cached is not None:
                certs[rr] = cached
            else:
                certs[rr] = _decide(dims, rr, meter, interval)
                if record is not None:
                    record(certs[rr])
        return certs[rr]

    r = max(2, min(guess, cap + 1))
    seed = _construction_witness(dims, r - 1, interval)
    if seed is not None:
        certs[r - 1] = seed
        if record is not None:
            record(seed)
    try:
        if cert_at(r).kind == "witness":
            while cert_at(r).kind == "witness":
                r += 1
        else:
            while r > 2 and cert_at(r - 1).kind == "exhaustion":
                r -= 1
        witness = cert_at(r - 1)
        if witness.kind != "witness":
            raise RuntimeError(
                f"monotonicity violated by the engine: no witness at r = {r - 1} "
                f"on {dims.m}x{dims.n}"
            )
        return RbResult(
            dims, r, witness, cert_at(r), True, r, r, interval, meter.nodes.value,
            meter.prune_counts(),
        )
    except BudgetExceeded:
        lo = max((rr + 1 for rr, c in certs.items() if c.kind == "witness"), default=2)
        hi = min((rr for rr, c in certs.items() if c.kind == "exhaustion"), default=cap + 1)
        return RbResult(
            dims, None, certs.get(lo - 1), certs.get(hi), False, lo, hi, interval,
            meter.nodes.value, meter.prune_counts(),
        )


def rb_search(
    dims: GridDims,
    budget: Optional[SearchBudget] = None,
    fetch=None,
    record=None,
) -> RbResult:
    """Exact rainbow number of the grid, with witness and exhaustion
    certificates. The witness at m + n is lower_bound_coloring, verified;
    the search decides r = m + n + 1 and, only if that is a witness, climbs.
    m = 1 grids have no construction and are scanned by search alone."""
    return _rb_scan(dims, budget, False, closed_form_rb_grid(dims), fetch, record)


def rb_search_interval(
    n: int,
    budget: Optional[SearchBudget] = None,
    fetch=None,
    record=None,
) -> RbResult:
    """Exact rainbow number of [n] for a + b = c, via the 1-by-n carrier.
    The witness at floor(log2 n) + 1 is valuation_coloring, verified; the
    search decides the closed form. n <= 2 has no construction and is
    scanned by search alone."""
    return _rb_scan(
        GridDims(1, n), budget, True, closed_form_rb_interval(n), fetch, record
    )
