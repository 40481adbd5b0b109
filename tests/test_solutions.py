"""Solution indexes against brute-force enumeration and rainbow scans."""

import random
import tracemalloc

import numpy as np

from schurgrid.coloring import Coloring, is_rainbow
from schurgrid.constructions import lower_bound_coloring, valuation_coloring
from schurgrid.grid import GridDims, SolutionTriple, enumerate_solutions
from schurgrid.solutions import (
    IntervalSolutionIndex,
    SolutionIndex,
    find_rainbow_solution,
    grid_index,
    index_for,
    interval_index,
    is_rainbow_free,
)


def test_grid_index_matches_enumeration():
    for m in range(1, 7):
        for n in range(m, 9):
            d = GridDims(m, n)
            idx = SolutionIndex(d)
            expected = enumerate_solutions(d)
            assert len(idx) == len(expected)
            arrays = idx.arrays()
            assert all(len(arr) == len(expected) for arr in arrays)
            got = {
                (int(a), int(b), int(g), bool(x))
                for a, b, g, x in zip(*arrays)
            }
            want = {
                (d.flat(t.alpha), d.flat(t.beta), d.flat(t.gamma), t.degenerate)
                for t in expected
            }
            assert got == want


def test_interval_triples_brute_force():
    for n in range(1, 41):
        idx = IntervalSolutionIndex(n)
        want = {
            (a, b, a + b)
            for a in range(1, n + 1)
            for b in range(a, n + 1)
            if a + b <= n
        }
        got = {(t.alpha.j, t.beta.j, t.gamma.j) for t in idx.triples()}
        assert got == want
        assert len(idx) == len(want)
        alpha, beta, gamma, degenerate = idx.arrays()
        assert len(alpha) == len(want)
        ids = zip(alpha.tolist(), beta.tolist(), gamma.tolist())
        assert {(a + 1, b + 1, g + 1) for a, b, g in ids} == want
        assert degenerate.tolist() == (alpha == beta).tolist()


def _random_coloring(d: GridDims, r: int, rng: random.Random) -> Coloring:
    cells = [rng.randint(1, r) for _ in range(d.cell_count)]
    cells[: r] = list(range(1, r + 1))  # keep it exact
    rng.shuffle(cells)
    return Coloring(d, tuple(cells), r)


def test_grid_find_rainbow_matches_triple_scan():
    rng = random.Random(7)
    for m, n in [(2, 3), (3, 3), (3, 5), (4, 4)]:
        d = GridDims(m, n)
        idx = grid_index(d.m, d.n)
        for _ in range(50):
            c = _random_coloring(d, rng.randint(2, d.cell_count), rng)
            found = find_rainbow_solution(c, idx)
            slow = [t for t in enumerate_solutions(d) if is_rainbow(t, c)]
            assert (found is None) == (not slow)
            if found is not None:
                assert is_rainbow(found, c)
                assert found.alpha + found.beta == found.gamma


def test_interval_find_rainbow_matches_triple_scan():
    rng = random.Random(11)
    for n in [5, 8, 12, 20]:
        d = GridDims(1, n)
        idx = interval_index(n)
        for _ in range(50):
            c = _random_coloring(d, rng.randint(2, n), rng)
            found = idx.find_rainbow(c.cells)
            slow = [t for t in idx.triples() if is_rainbow(t, c)]
            assert (found is None) == (not slow)
            if found is not None:
                assert is_rainbow(found, c)
                assert found.alpha.i == found.beta.i == found.gamma.i == 1
                assert found.gamma.j == found.alpha.j + found.beta.j


def test_find_rainbow_returns_first_hit_in_arrays_order():
    rng = random.Random(13)
    boxes = [(GridDims(m, n), False) for m in range(1, 6) for n in range(m, 9)]
    boxes += [(GridDims(1, n), True) for n in range(1, 41)]
    for d, interval in boxes:
        idx = index_for(d, interval)
        alpha, beta, gamma, degenerate = idx.arrays()
        for _ in range(20):
            r = rng.randint(1, min(d.cell_count, 5))
            cells = tuple(rng.randint(1, r) for _ in range(d.cell_count))
            colors = np.asarray(cells)
            ca, cb, cc = colors[alpha], colors[beta], colors[gamma]
            rainbow = ~degenerate & (ca != cb) & (ca != cc) & (cb != cc)
            want = None
            if rainbow.any():
                i = int(rainbow.argmax())
                p = d.point
                want = SolutionTriple(
                    p(int(alpha[i])), p(int(beta[i])), p(int(gamma[i])), False
                )
            assert idx.find_rainbow(cells) == want, (d, interval, cells)


def test_caches_return_same_object():
    assert grid_index(3, 4) is grid_index(3, 4)
    assert interval_index(9) is interval_index(9)


def test_single_row_grid_is_trivially_rainbow_free():
    d = GridDims(1, 6)
    c = Coloring(d, (1, 2, 3, 4, 5, 6), 6)
    assert is_rainbow_free(c, grid_index(d.m, d.n))
    # the same cells seen as [6] with a + b = c do admit a rainbow
    assert not is_rainbow_free(c, interval_index(6))


def test_rainbow_checks_keep_memory_flat():
    # the index streams its triples: 50x50 has about 750k and [10^4] 25M
    for c, interval in [
        (lower_bound_coloring(GridDims(50, 50), verify=False), False),
        (valuation_coloring(10**4), True),
    ]:
        tracemalloc.start()
        try:
            assert is_rainbow_free(c, SolutionIndex(c.dims, interval))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (c.dims, peak)


def test_cache_clear_drops_the_indexes_index_for_hands_out():
    # search, certificates and the analyzer take their index from index_for;
    # the benchmark starts each pass cold by clearing these two caches
    d = GridDims(3, 4)
    grid = index_for(d, False)
    assert index_for(d, False) is grid is grid_index(3, 4)
    grid_index.cache_clear()
    assert index_for(d, False) is not grid

    line = GridDims(1, 9)
    interval = index_for(line, True)
    assert index_for(line, True) is interval is interval_index(9)
    interval_index.cache_clear()
    assert index_for(line, True) is not interval
