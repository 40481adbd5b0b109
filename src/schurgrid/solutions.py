"""One solution index for both equations, with fast rainbow lookup.

The grid equation (component-wise sums inside [m]x[n]) and Schur triples
a + b = c inside [n] are the same equation, x + y = z, inside a box: shape
(m, n) for a grid and (n,) for an interval. The interval lives on the
1-by-n carrier grid, whose row-major flat ids coincide with the box's, so
one SolutionIndex serves both (the grid equation alone has no solutions
when m = 1).

The index keeps only the box and its trailing-axis pairs: the column pairs
(j1, j2) with j1 + j2 <= n on a grid, one empty pair on an interval. Triples
are streamed by one sweep over the leading coordinate of the first summand,
never stored: [10^4] alone has 25M of them, so memory stays O(cells).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .coloring import Coloring
from .grid import GridDims, SolutionTriple


class SolutionIndex:
    """Every unordered solution {x, y, x + y} of x + y = z inside a box."""

    def __init__(self, dims: GridDims, interval: bool = False):
        if interval and dims.m != 1:
            raise ValueError(f"an interval lives on a 1-by-n carrier, got {dims.m}x{dims.n}")
        self.dims = dims
        self.shape = (dims.n,) if interval else (dims.m, dims.n)
        # (first summand, second summand, sum) offsets within a box row
        if interval:
            empty = np.zeros(1, dtype=np.intp)
            self._pairs = (empty, empty, empty)
        else:
            j = np.arange(1, dims.n)
            t1, t2 = np.nonzero(j[:, None] + j[None, :] <= dims.n)
            self._pairs = (t1, t2, t1 + t2 + 1)

    def __len__(self) -> int:
        ordered = math.prod(s * (s - 1) // 2 for s in self.shape)
        diagonal = math.prod(s // 2 for s in self.shape)
        return (ordered + diagonal) // 2

    def _block(self, rows: np.ndarray, x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """rows (a flat array reshaped by _rows) at the first summand, second
        summand and sum of the triples whose first summand has leading
        coordinate x. Axis 0 runs over the second summand's leading
        coordinate y = x..L-x, axis 1 over the trailing pairs. Over the box's
        leading side L, x <= y and x + y <= L leave x = 1..L//2."""
        t1, t2, t3 = self._pairs
        return rows[x - 1, t1], rows[x - 1 : len(rows) - x, t2], rows[2 * x - 1 :, t3]

    def _rows(self, values=None) -> np.ndarray:
        """Flat values (default: the flat ids) reshaped to (L, row width)."""
        if values is None:
            values = np.arange(self.dims.cell_count)
        return np.asarray(values).reshape(self.shape[0], -1)

    def find_rainbow(self, cells: Sequence[int]) -> Optional[SolutionTriple]:
        """First rainbow triple under the flat coloring cells, or None.
        Degenerate triples need no mask: both summands share one color."""
        colors = self._rows(cells)
        for x in range(1, self.shape[0] // 2 + 1):
            ca, cb, cc = self._block(colors, x)
            hits = np.flatnonzero((ca != cb) & (ca != cc) & (cb != cc))
            if hits.size:
                ids = self._block(self._rows(), x)
                a, b, c = (int(np.broadcast_to(arr, cb.shape).flat[hits[0]]) for arr in ids)
                p = self.dims.point
                return SolutionTriple(p(min(a, b)), p(max(a, b)), p(c), False)
        return None

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat ids (alpha, beta, gamma) and the degenerate flag of every
        triple, alpha <= beta, generated on demand by the find_rainbow sweep
        and in its order."""
        t1, t2, _ = self._pairs
        ids = self._rows()
        parts: list[list[np.ndarray]] = [[], [], []]
        for x in range(1, self.shape[0] // 2 + 1):
            block = np.broadcast_arrays(*self._block(ids, x))
            keep = np.ones(block[1].shape, dtype=bool)
            keep[0] = t1 <= t2  # y == x: one ordering of each pair
            for part, arr in zip(parts, block):
                part.append(arr[keep])
        alpha, beta, gamma = (
            np.concatenate(p) if p else np.empty(0, dtype=np.intp) for p in parts
        )
        return alpha, beta, gamma, alpha == beta

    def triples(self) -> list[SolutionTriple]:
        p = self.dims.point
        return [
            SolutionTriple(p(a), p(b), p(c), d)
            for a, b, c, d in zip(*(arr.tolist() for arr in self.arrays()))
        ]


def IntervalSolutionIndex(n: int) -> SolutionIndex:
    return SolutionIndex(GridDims(1, n), interval=True)


@lru_cache(maxsize=64)
def grid_index(m: int, n: int) -> SolutionIndex:
    return SolutionIndex(GridDims(m, n))


@lru_cache(maxsize=64)
def interval_index(n: int) -> SolutionIndex:
    return IntervalSolutionIndex(n)


def index_for(dims: GridDims, interval: bool) -> SolutionIndex:
    """The cached index of [n] (on the 1-by-n carrier) or of the grid."""
    return interval_index(dims.n) if interval else grid_index(dims.m, dims.n)


def find_rainbow_solution(c: Coloring, index: SolutionIndex) -> Optional[SolutionTriple]:
    if index.dims != c.dims:
        raise ValueError("solution index built for different dimensions")
    return index.find_rainbow(c.cells)


def is_rainbow_free(c: Coloring, index: SolutionIndex) -> bool:
    """True iff no solution triple is rainbow under c."""
    return find_rainbow_solution(c, index) is None
