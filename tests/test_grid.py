"""Grid geometry: points, diagonals, solutions, jumps."""

import pytest

from schurgrid.grid import (
    GridDims,
    GridPoint,
    covered_diagonals,
    detect_jump,
    diagonal_cells,
    diagonal_index,
    diagonal_slice,
    enumerate_solutions,
    jump_cover,
    jump_window,
    landing_diff,
    landing_sum,
)


def test_point_arithmetic_and_order():
    a = GridPoint(1, 2)
    b = GridPoint(2, 5)
    assert a + b == GridPoint(3, 7)
    assert b - a == GridPoint(1, 3)
    assert a < b
    assert not b < a


def test_dims_transposes_wide_inputs():
    d = GridDims(5, 3)
    assert (d.m, d.n) == (3, 5)
    assert d.cell_count == 15
    assert d.diagonal_count == 7


def test_dims_rejects_nonpositive():
    with pytest.raises(ValueError):
        GridDims(0, 3)


def test_flat_roundtrip():
    d = GridDims(3, 4)
    for idx, p in enumerate(d.cells()):
        assert d.flat(p) == idx
        assert d.point(idx) == p


def test_diagonal_index_and_cells():
    d = GridDims(3, 4)
    # k = m - i + j; the main diagonal is k = m
    assert diagonal_index(GridPoint(1, 1), d) == 3
    assert diagonal_index(GridPoint(3, 1), d) == 1
    assert diagonal_index(GridPoint(1, 4), d) == 6
    for k in range(1, d.diagonal_count + 1):
        cells = diagonal_cells(k, d)
        assert cells, f"diagonal {k} empty"
        assert all(diagonal_index(p, d) == k for p in cells)
    # every cell on exactly one diagonal
    assert sum(len(diagonal_cells(k, d)) for k in range(1, 7)) == 12


def test_diagonal_slice_matches_diagonal_cells():
    for m in range(1, 7):
        for n in range(m, 10):
            d = GridDims(m, n)
            ids = list(range(d.cell_count))
            for k in range(1, d.diagonal_count + 1):
                want = [d.flat(p) for p in diagonal_cells(k, d)]
                assert ids[diagonal_slice(k, d)] == want, (m, n, k)
    with pytest.raises(ValueError):
        diagonal_slice(0, GridDims(3, 4))


def test_diagonal_index_outside_grid():
    with pytest.raises(ValueError):
        diagonal_index(GridPoint(4, 1), GridDims(3, 4))


def test_enumerate_solutions_brute_force():
    for m in range(1, 5):
        for n in range(m, 6):
            d = GridDims(m, n)
            pts = list(d.cells())
            expected = set()
            for p in pts:
                for q in pts:
                    if d.contains(p + q):
                        expected.add(tuple(sorted([p, q])))
            got = {(t.alpha, t.beta) for t in enumerate_solutions(d)}
            assert got == {(a, b) for a, b in expected}


def test_enumerate_solutions_empty_for_single_row():
    assert enumerate_solutions(GridDims(1, 9)) == []


def test_degenerate_flag():
    d = GridDims(4, 4)
    for t in enumerate_solutions(d):
        assert t.degenerate == (t.alpha == t.beta)
        assert t.alpha + t.beta == t.gamma


def test_landing_indices_match_geometry():
    d = GridDims(4, 6)
    pts = list(d.cells())
    for p in pts:
        for q in pts:
            if d.contains(p + q):
                a, b = diagonal_index(p, d), diagonal_index(q, d)
                assert diagonal_index(p + q, d) == landing_sum(a, b, d)
            if d.contains(p - q):
                a, b = diagonal_index(p, d), diagonal_index(q, d)
                assert diagonal_index(p - q, d) == landing_diff(a, b, d)


def test_detect_jump():
    j = detect_jump(GridPoint(1, 1), GridPoint(3, 2))
    assert j is not None
    assert j.delta == GridPoint(2, 1)
    assert j.distance == 3
    assert detect_jump(GridPoint(1, 1), GridPoint(1, 5)) is None
    assert detect_jump(GridPoint(2, 2), GridPoint(2, 2)) is None
    assert detect_jump(GridPoint(3, 3), GridPoint(1, 1)) is None


def test_jump_window_excludes_endpoints_and_main():
    d = GridDims(5, 5)
    a = GridPoint(2, 1)
    b = GridPoint(4, 4)
    w = jump_window(a, b, d)
    assert diagonal_index(a, d) not in w
    assert diagonal_index(b, d) not in w
    assert d.m not in w
    assert all(1 <= k <= d.diagonal_count for k in w)


def test_jump_window_requires_a_jump():
    with pytest.raises(ValueError):
        jump_window(GridPoint(1, 1), GridPoint(1, 2), GridDims(3, 3))


def test_covered_diagonals_contains_window():
    d = GridDims(6, 6)
    a = GridPoint(1, 2)
    b = GridPoint(4, 5)
    assert jump_window(a, b, d) <= covered_diagonals(a, b, d)


def test_jump_cover_small_case():
    d = GridDims(4, 4)
    a = GridPoint(1, 1)
    b = GridPoint(4, 4)
    for k in covered_diagonals(a, b, d):
        for g in diagonal_cells(k, d):
            v = jump_cover(a, b, g, d)
            assert v.covered
            assert not v.neither
