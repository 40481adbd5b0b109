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
never stored: [10^4] alone has 25M of them. A sweep first gathers every box
row at the trailing-pair offsets, so its memory is O(rows x trailing pairs):
O(m n^2) on a grid, O(n) on an interval.
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

    def _gather(self, values=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat values (default: the flat ids) as L box rows, each gathered
        at the first-summand, second-summand and sum offsets of every
        trailing pair: three (L, pairs) arrays, made once per sweep."""
        if values is None:
            values = np.arange(self.dims.cell_count)
        rows = np.asarray(values).reshape(self.shape[0], -1)
        t1, t2, t3 = self._pairs
        return rows[:, t1], rows[:, t2], rows[:, t3]

    @staticmethod
    def _block(gathered, x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the gathered values at the first summand, second summand
        and sum of the triples whose first summand has leading coordinate x.
        Axis 0 runs over the second summand's leading coordinate y = x..L-x,
        axis 1 over the trailing pairs. Over the box's leading side L,
        x <= y and x + y <= L leave x = 1..L//2."""
        g1, g2, g3 = gathered
        return g1[x - 1], g2[x - 1 : len(g2) - x], g3[2 * x - 1 :]

    def find_rainbow(self, cells: Sequence[int]) -> Optional[SolutionTriple]:
        """First rainbow triple under the flat coloring cells, in arrays()
        order, or None. Degenerate triples need no mask: both summands share
        one color."""
        gathered = self._gather(cells)
        for x in range(1, self.shape[0] // 2 + 1):
            ca, cb, cc = self._block(gathered, x)
            bad = (ca != cb) & (ca != cc) & (cb != cc)
            if bad.any():
                dy, q = divmod(int(bad.argmax()), bad.shape[1])
                width = self.dims.cell_count // self.shape[0]
                t1, t2, t3 = (int(t[q]) for t in self._pairs)
                a = (x - 1) * width + t1
                b = (x - 1 + dy) * width + t2
                c = (2 * x - 1 + dy) * width + t3
                p = self.dims.point
                return SolutionTriple(p(min(a, b)), p(max(a, b)), p(c), False)
        return None

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat ids (alpha, beta, gamma) and the degenerate flag of every
        triple, alpha <= beta, generated on demand by the find_rainbow sweep
        and in its order."""
        t1, t2, _ = self._pairs
        ids = self._gather()
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
