"""Search engine: oracle agreement, rb values, budgets, certificates."""

import time

import pytest

from schurgrid.certificates import (
    CONSTRUCTION_ENGINE,
    ENGINE_VERSION,
    INTERVAL_ENGINE_VERSION,
    Certificate,
)
from schurgrid.coloring import Coloring, canonicalize, is_exact, merge_colors
from schurgrid.constructions import (
    closed_form_rb_grid,
    closed_form_rb_interval,
    lower_bound_coloring,
)
from schurgrid.grid import GridDims, enumerate_solutions
from schurgrid.search import (
    _FLUSH_EVERY,
    BudgetExceeded,
    SearchBudget,
    _build_checks,
    _Meter,
    _search,
    assignment_order,
    enumerate_rainbow_free,
    exists_rainbow_free,
    naive_oracle,
    rb_search,
    rb_search_interval,
)
from schurgrid.solutions import grid_index, interval_index, is_rainbow_free


def test_oracle_agreement_sample():
    for m, n in [(2, 2), (2, 3), (3, 3), (1, 5)]:
        d = GridDims(m, n)
        for r in range(1, d.cell_count + 1):
            assert exists_rainbow_free(d, r).kind == naive_oracle(d, r).kind


def test_oracle_agreement_interval():
    for n in range(1, 9):
        d = GridDims(1, n)
        for r in range(1, n + 1):
            fast = exists_rainbow_free(d, r, interval=True).kind
            assert fast == naive_oracle(d, r, interval=True).kind


def test_witness_certificates_verify():
    d = GridDims(3, 3)
    cert = exists_rainbow_free(d, 6)
    assert cert.kind == "witness"
    assert cert.verify()
    assert is_exact(cert.coloring)
    assert is_rainbow_free(cert.coloring, grid_index(d.m, d.n))
    assert canonicalize(cert.coloring).cells == cert.coloring.cells


def test_r_bounds():
    # r = cells + 1 is the vacuous convention boundary, anything past it is
    # an error
    vac = exists_rainbow_free(GridDims(2, 2), 5)
    assert vac.kind == "exhaustion" and vac.nodes == 0
    with pytest.raises(ValueError):
        exists_rainbow_free(GridDims(2, 2), 6)
    with pytest.raises(ValueError):
        exists_rainbow_free(GridDims(2, 2), 0)


def _scan_recording(scan, *args):
    recorded: list[Certificate] = []
    return scan(*args, record=recorded.append), recorded


def _assert_witness_source(res, recorded, interval, construction):
    """The witness at rb - 1 is the verified construction when one applies,
    recorded before rb's exhaustion, the scan's only search; otherwise the
    search found it."""
    searched = INTERVAL_ENGINE_VERSION if interval else ENGINE_VERSION
    assert res.exhaustion.engine == searched
    if not construction:
        assert res.witness.engine == searched
        return
    tag = CONSTRUCTION_ENGINE + "-interval" if interval else CONSTRUCTION_ENGINE
    assert res.witness.engine == tag and res.witness.is_interval == interval
    assert res.witness.nodes == 0
    assert canonicalize(res.witness.coloring) == res.witness.coloring
    assert recorded == [res.witness, res.exhaustion]
    assert res.nodes == res.exhaustion.nodes


def test_rb_search_small_grids():
    # every grid m <= n with m * n <= 64 (8x8 takes 9,290 exhaustion nodes),
    # each scan well inside its cap; m = 1 grids have no construction
    for d in (GridDims(m, n) for m in range(1, 9) for n in range(m, 64 // m + 1)):
        res, recorded = _scan_recording(rb_search, d, SearchBudget(max_nodes=500_000))
        assert res.complete
        assert res.rb_value == closed_form_rb_grid(d)
        assert res.witness.kind == "witness" and res.witness.r == res.rb_value - 1
        assert res.exhaustion.kind == "exhaustion" and res.exhaustion.r == res.rb_value
        assert res.witness.verify() and res.exhaustion.verify()
        _assert_witness_source(res, recorded, False, d.m >= 2)


def test_rb_search_interval_small():
    # [64] takes 732 exhaustion nodes, each scan well inside its cap; [1]
    # and [2] have no construction
    for n in range(1, 65):
        res, recorded = _scan_recording(rb_search_interval, n, SearchBudget(max_nodes=500_000))
        assert res.complete
        assert res.rb_value == closed_form_rb_interval(n)
        assert res.witness.verify() and res.exhaustion.verify()
        _assert_witness_source(res, recorded, True, n >= 3)


def test_rb_convention_cases_use_vacuous_exhaustion():
    # rb = |S| + 1 when there are no solutions; the exhaustion sits at
    # r = |S| + 1 where no exact coloring exists at all
    res = rb_search(GridDims(1, 4))
    assert res.rb_value == 5
    assert res.exhaustion.r == 5 and res.exhaustion.nodes == 0
    assert res.exhaustion.verify()


def test_node_budget_raises():
    with pytest.raises(BudgetExceeded):
        # r = 25 is an exhaustion of 325,672 nodes, far past the first 4,096-node flush
        exists_rainbow_free(GridDims(12, 12), 25, SearchBudget(max_nodes=1))


def test_zero_seconds_budget_raises_serial_and_parallel():
    d = GridDims(12, 12)  # r = 25 is an exhaustion of 325,672 nodes; a zero deadline stops it first
    for threads in (1, 2):
        with pytest.raises(BudgetExceeded):
            exists_rainbow_free(d, 25, SearchBudget(max_seconds=0, threads=threads))
    with pytest.raises(BudgetExceeded):
        list(enumerate_rainbow_free(d, 25, SearchBudget(max_seconds=0)))


def _add_nodes(times):
    from schurgrid import search

    meter = search._job[3]
    for _ in range(times):
        meter.add(1, 1, 2, 3)


def test_meter_sums_nodes_from_more_workers_than_cores():
    # a lost update between the workers' read-modify-writes would lose nodes
    from concurrent.futures import ProcessPoolExecutor

    from schurgrid import search

    meter = search._Meter(SearchBudget(threads=4))
    job = ([], [], 1, meter)
    with ProcessPoolExecutor(4, initializer=search._adopt, initargs=job) as pool:
        list(pool.map(_add_nodes, [2000] * 8, timeout=60))
    assert meter.nodes.value == 8 * 2000
    assert meter.prune_counts() == {
        "empty_domain": 8 * 2000,
        "fresh_capacity": 2 * 8 * 2000,
        "independence": 3 * 8 * 2000,
    }


def test_rb_scan_rejects_non_monotone_engine(monkeypatch):
    # an engine that claims exhaustion at every r, rb - 1 included, drives
    # the scan down to r = 1, where a witness must exist; an m = 1 grid has
    # no construction to stand for rb - 1
    from schurgrid import search

    def exhausted(dims, r, meter, interval):
        return Certificate("exhaustion", dims, r, None, 0, ENGINE_VERSION)

    monkeypatch.setattr(search, "_decide", exhausted)
    with pytest.raises(RuntimeError, match="monotonicity"):
        rb_search(GridDims(1, 4))


def test_budget_cut_gives_bracketing_result():
    # r = 25 is an exhaustion of 325,672 nodes, cut at the first flush
    res = rb_search(GridDims(12, 12), SearchBudget(max_nodes=1))
    assert not res.complete
    assert res.rb_value is None
    assert res.lo <= 25 <= res.hi
    if res.witness is not None:
        assert res.witness.kind == "witness" and res.witness.r == res.lo - 1
    if res.exhaustion is not None:
        assert res.exhaustion.kind == "exhaustion" and res.exhaustion.r == res.hi


def test_rb_scan_budget_covers_every_r(monkeypatch):
    # a guess one too high leaves no construction for r = 25, so the scan
    # searches r = 26 (9,731 nodes) under the cap, and r = 25 (325,672 more)
    # does not fit
    from schurgrid import search

    monkeypatch.setattr(search, "closed_form_rb_grid", lambda dims: dims.m + dims.n + 2)
    res = rb_search(GridDims(12, 12), SearchBudget(max_nodes=100_000))
    assert not res.complete
    assert res.exhaustion is not None and res.exhaustion.r == res.hi == 26
    assert 100_000 <= res.nodes <= 100_000 + _FLUSH_EVERY
    # the cut scan keeps the prunes of every flush before the cut
    assert all(count > 0 for count in res.prunes.values())


def test_rb_scan_climbs_by_search_past_a_witness_at_the_closed_form(monkeypatch):
    # a witness at the closed form falsifies the paper: the scan climbs by
    # search and reports the rb it finds
    from schurgrid import search

    real = search._decide

    def witness_at_closed_form(dims, r, meter, interval):
        closed = closed_form_rb_interval(dims.n) if interval else closed_form_rb_grid(dims)
        if r == closed:
            return Certificate("witness", dims, r, None, 1, search._engine(interval))
        return real(dims, r, meter, interval)

    monkeypatch.setattr(search, "_decide", witness_at_closed_form)
    for scan, arg, closed in ((rb_search, GridDims(3, 4), 8), (rb_search_interval, 12, 5)):
        res, recorded = _scan_recording(scan, arg)
        assert res.complete and res.rb_value == closed + 1
        assert res.witness.r == closed and res.witness.nodes == 1
        assert res.exhaustion.r == closed + 1 and res.exhaustion.nodes > 0
        assert [c.r for c in recorded] == [closed - 1, closed, closed + 1]


def test_rb_scan_never_returns_a_failed_construction(monkeypatch):
    # a rainbow construction, or one with the wrong color count, is searched past
    from schurgrid import search

    d = GridDims(3, 4)
    good = lower_bound_coloring(d)
    # colors 1, 2, ..., r, r, r row-major: exact, and (1,1) + (1,2) = (2,3) is rainbow
    rainbow = Coloring(d, tuple(min(k + 1, good.r) for k in range(d.cell_count)), good.r)
    for bad in (rainbow, merge_colors(good, 1, 2)):
        monkeypatch.setattr(search, "_construction", lambda dims, interval: bad)
        res, recorded = _scan_recording(rb_search, d)
        assert res.complete and res.rb_value == 8
        assert res.witness.engine == ENGINE_VERSION and res.witness.nodes > 0
        assert res.witness.verify()
        assert all(c.engine == ENGINE_VERSION for c in recorded)


def test_node_cap_is_shared_by_workers():
    d = GridDims(12, 12)  # r = 25 is an exhaustion of 325,672 nodes
    with pytest.raises(BudgetExceeded) as info:
        exists_rainbow_free(d, 25, SearchBudget(max_nodes=200_000, threads=2))
    assert 200_000 <= info.value.nodes <= 200_000 + 2 * _FLUSH_EVERY


def test_deadline_is_shared_by_workers():
    d = GridDims(15, 15)  # r = 31 is an exhaustion of about 4.1M nodes, seconds
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded):
        exists_rainbow_free(d, 31, SearchBudget(max_seconds=0.5, threads=2))
    assert time.monotonic() - t0 < 1.5


def test_enumerate_yields_canonical_exact_rainbow_free():
    d = GridDims(2, 3)
    idx = grid_index(d.m, d.n)
    seen = set()
    for c in enumerate_rainbow_free(d, 3):
        assert is_exact(c)
        assert is_rainbow_free(c, idx)
        assert canonicalize(c).cells == c.cells
        assert c.cells not in seen
        seen.add(c.cells)
    assert seen


def test_enumerate_count_matches_naive_partition_scan():
    from schurgrid.search import _partitions_into_blocks

    d = GridDims(2, 3)
    idx = grid_index(d.m, d.n)
    trips = [
        (d.flat(t.alpha), d.flat(t.beta), d.flat(t.gamma))
        for t in idx.triples()
        if not t.degenerate
    ]
    for r in range(1, 7):
        fast = sum(1 for _ in enumerate_rainbow_free(d, r))
        slow = sum(
            1
            for cells in _partitions_into_blocks(6, r)
            if not any(
                len({cells[a], cells[b], cells[g]}) == 3 for a, b, g in trips
            )
        )
        assert fast == slow


def test_parallel_matches_single_threaded():
    d = GridDims(3, 4)
    for r in (6, 8):
        single = exists_rainbow_free(d, r)
        multi = exists_rainbow_free(d, r, SearchBudget(threads=2))
        assert single.kind == multi.kind
        if multi.kind == "witness":
            assert multi.verify()


def test_diagonal_assignment_order_same_answers():
    # row-major is a test-only reference order; 3x4 has 12 cells, past the
    # naive oracle's cap
    for d in (GridDims(3, 3), GridDims(3, 4)):
        idx = grid_index(d.m, d.n)
        for r in range(2, d.m + d.n + 2):
            found = [
                _search(order, _build_checks(idx, order), r, _Meter(None)) is not None
                for order in (assignment_order(d), list(range(d.cell_count)))
            ]
            assert found[0] == found[1]


def test_rb_scan_reaches_3x7_within_a_million_nodes():
    res = rb_search(GridDims(3, 7), SearchBudget(max_nodes=1_000_000))
    assert res.complete and res.rb_value == 11


def test_enumeration_class_counts():
    # rainbow-free classes over every r = 1..cells
    for m, n, classes in [(2, 3, 126), (3, 3, 2_041), (2, 4, 1_263), (3, 4, 30_239)]:
        d = GridDims(m, n)
        found = sum(
            1 for r in range(1, d.cell_count + 1) for _ in enumerate_rainbow_free(d, r)
        )
        assert found == classes


def test_extremal_class_counts():
    # rainbow-free classes at r = rb - 1: a sound bound prunes none of them
    for m, n, classes in [(3, 3, 7), (3, 4, 18), (4, 4, 58), (4, 5, 78), (5, 5, 157)]:
        assert sum(1 for _ in enumerate_rainbow_free(GridDims(m, n), m + n)) == classes
    interval = [3, 1, 2, 6, 9, 1, 1, 3, 3, 9, 9, 15, 18, 1, 1, 1, 1, 4, 4, 4, 4, 12, 13, 13]
    for n, classes in zip(range(3, 27), interval):
        d = GridDims(1, n)
        assert sum(1 for _ in enumerate_rainbow_free(d, n.bit_length(), interval=True)) == classes


def _independence_number(vertices: int, adj: dict[int, int]) -> int:
    """Largest independent set within the vertex bitmask, by plain branching."""
    if not vertices:
        return 0
    v = (vertices & -vertices).bit_length() - 1
    rest = vertices & ~(1 << v)
    return max(_independence_number(rest, adj), 1 + _independence_number(rest & ~adj[v], adj))


def test_room_bounds_the_independence_number():
    # G_k is built here from grid.enumerate_solutions, not from the index
    for d in (GridDims(m, n) for m in range(1, 5) for n in range(m, 5)):
        order = assignment_order(d)
        pos = {cell: p for p, cell in enumerate(order)}
        triples = [
            sorted((pos[d.flat(t.alpha)], pos[d.flat(t.beta)], pos[d.flat(t.gamma)]))
            for t in enumerate_solutions(d)
            if not t.degenerate
        ]
        room = _build_checks(grid_index(d.m, d.n), order).room
        assert len(room) == d.cell_count + 1
        for k in range(d.cell_count + 1):
            adj = {v: 0 for v in range(d.cell_count)}
            for a, b, c in triples:
                if a < k <= b:
                    adj[b] |= 1 << c
                    adj[c] |= 1 << b
            free = (1 << d.cell_count) - (1 << k)
            assert room[k] >= _independence_number(free, adj), (d, k)


def test_room_on_intervals_is_exact():
    # on [n], G_k joins positions k.. at distance at most k, whose
    # independence number is ceil((n - k) / (k + 1))
    for n in range(1, 41):
        d = GridDims(1, n)
        room = _build_checks(interval_index(n), assignment_order(d)).room
        assert room == [-(-(n - k) // (k + 1)) for k in range(n + 1)], n


def test_independence_bound_node_counts():
    # exhaustion sizes at rb under the clique-cover bound; without it, 6x6
    # took 887,127 nodes and [40] 1,015,029
    for scan, arg, nodes in (
        (rb_search, GridDims(6, 6), 879),
        (rb_search, GridDims(8, 8), 9_290),
        (rb_search_interval, 40, 195),
        (rb_search_interval, 64, 732),
    ):
        res = scan(arg)
        assert res.complete and res.exhaustion.nodes == nodes


def test_prunes_are_counted_by_cause():
    # the 6x6 exhaustion at r = 13 (879 nodes) prunes by every cause
    res = rb_search(GridDims(6, 6))
    assert set(res.prunes) == {"empty_domain", "fresh_capacity", "independence"}
    assert all(count > 0 for count in res.prunes.values())
    assert rb_search(GridDims(6, 6)).prunes == res.prunes


def test_naive_oracle_cell_cap():
    with pytest.raises(ValueError):
        naive_oracle(GridDims(3, 4), 3)


def test_certificate_json_roundtrip():
    cert = exists_rainbow_free(GridDims(2, 3), 4)
    again = Certificate.from_json(cert.to_json())
    assert again == cert
    assert again.engine == ENGINE_VERSION
    assert again.verify()


def test_tampered_witness_fails_verification():
    from schurgrid.coloring import Coloring

    cert = exists_rainbow_free(GridDims(3, 3), 6)
    rows = cert.coloring.rows()
    rows[2][0] = rows[0][0]  # break exactness
    bad = Certificate.from_json(cert.to_json())
    bad.coloring = Coloring.from_rows(rows, cert.r)
    assert not bad.verify()
