"""Closed-form colorings and closed-form rainbow numbers."""

from __future__ import annotations

from .coloring import Coloring
from .grid import GridDims
from .solutions import grid_index, interval_index, is_rainbow_free


def lower_bound_coloring(dims: GridDims, verify: bool = True) -> Coloring:
    """The exact (m+n)-coloring witnessing the grid lower bound: color 1
    fills the interior block {i < m, j < n}, the last column gets i+1 and
    the last row gets j+m. Every solution has both summands inside the
    interior block, so the coloring is rainbow-free.
    """
    m, n = dims.m, dims.n
    if m < 2:
        raise ValueError("construction needs m >= 2 (all three regions nonempty)")
    cells = []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if i == m:
                cells.append(j + m)
            elif j == n:
                cells.append(i + 1)
            else:
                cells.append(1)
    c = Coloring(dims, tuple(cells), m + n)
    if verify and not is_rainbow_free(c, grid_index(dims.m, dims.n)):
        raise AssertionError("lower-bound construction produced a rainbow triple")
    return c


def two_adic_valuation(x: int) -> int:
    return (x & -x).bit_length() - 1


def valuation_coloring(n: int, verify: bool = False) -> Coloring:
    """Rainbow-free coloring of [n] by 2-adic valuation: c(x) = v2(x) + 1,
    using floor(log2 n) + 1 colors. In any a + b = c, either a and b share
    a valuation or c inherits the smaller one, so no triple is rainbow.
    """
    if n < 1:
        raise ValueError(f"interval length must be positive, got {n}")
    cells = tuple(two_adic_valuation(x) + 1 for x in range(1, n + 1))
    c = Coloring(GridDims(1, n), cells, n.bit_length())
    if verify and not is_rainbow_free(c, interval_index(n)):
        raise AssertionError("valuation construction produced a rainbow triple")
    return c


def closed_form_rb_interval(n: int) -> int:
    """Rainbow number of [n]: floor(log2 n) + 2 for n >= 3, else n + 1 by
    the no-solution convention ([1] has none, [2] only the degenerate one)."""
    if n < 1:
        raise ValueError(f"interval length must be positive, got {n}")
    if n <= 2:
        return n + 1
    return n.bit_length() + 1


def closed_form_rb_grid(dims: GridDims) -> int:
    """Rainbow number of [m]x[n]: m + n + 1 for m >= 2, and n + 1 for
    m = 1 (no solutions, convention |S| + 1)."""
    if dims.m == 1:
        return dims.n + 1
    return dims.m + dims.n + 1
