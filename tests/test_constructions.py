"""Closed-form colorings and rainbow-number formulas."""

import pytest

from schurgrid.coloring import is_exact
from schurgrid.constructions import (
    closed_form_rb_grid,
    closed_form_rb_interval,
    lower_bound_coloring,
    two_adic_valuation,
    valuation_coloring,
)
from schurgrid.grid import GridDims, GridPoint
from schurgrid.solutions import grid_index, interval_index, is_rainbow_free


def test_lower_bound_coloring_shape():
    d = GridDims(3, 4)
    c = lower_bound_coloring(d)
    assert c.r == 7
    assert is_exact(c)
    assert c.rows() == [[1, 1, 1, 2], [1, 1, 1, 3], [4, 5, 6, 7]]


def test_lower_bound_coloring_rainbow_free():
    for m in range(2, 6):
        for n in range(m, 8):
            d = GridDims(m, n)
            c = lower_bound_coloring(d)
            assert is_rainbow_free(c, grid_index(d.m, d.n))


def test_lower_bound_coloring_rejects_single_row():
    with pytest.raises(ValueError):
        lower_bound_coloring(GridDims(1, 5))


def test_two_adic_valuation():
    assert [two_adic_valuation(x) for x in range(1, 9)] == [0, 1, 0, 2, 0, 1, 0, 3]


def test_valuation_coloring():
    c = valuation_coloring(8, verify=True)
    assert c.cells == (1, 2, 1, 3, 1, 2, 1, 4)
    assert c.r == 4
    assert is_exact(c)
    assert is_rainbow_free(c, interval_index(8))


def test_closed_form_interval():
    assert closed_form_rb_interval(1) == 2
    assert closed_form_rb_interval(2) == 3
    assert closed_form_rb_interval(3) == 3
    assert closed_form_rb_interval(4) == 4
    assert closed_form_rb_interval(8) == 5
    assert closed_form_rb_interval(1024) == 12
    with pytest.raises(ValueError):
        closed_form_rb_interval(0)


def test_closed_form_grid():
    assert closed_form_rb_grid(GridDims(3, 3)) == 7
    assert closed_form_rb_grid(GridDims(2, 6)) == 9
    assert closed_form_rb_grid(GridDims(1, 4)) == 5


def test_lower_bound_corners_unconstrained():
    # (1, n) and (m, 1) sit on no solution triple, so their colors are free
    d = GridDims(3, 4)
    idx = grid_index(d.m, d.n)
    corner_flats = {d.flat(GridPoint(1, 4)), d.flat(GridPoint(3, 1))}
    alpha, beta, gamma, _ = idx.arrays()
    touched = set(alpha.tolist()) | set(beta.tolist()) | set(gamma.tolist())
    assert not (corner_flats & touched)
