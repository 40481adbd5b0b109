"""Arithmetic of the m-by-n integer grid: points, diagonals, solutions, jumps.

Everything here is coloring-agnostic. Points are 1-based, (row, col), with
(1, 1) in the upper left. Diagonal k collects the cells with i - j = m - k,
so k runs from 1 (bottom-left corner) to m + n - 1 (top-right corner) and
k = m is the main diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True, order=True)
class GridPoint:
    i: int
    j: int

    def __add__(self, other: "GridPoint") -> "GridPoint":
        return GridPoint(self.i + other.i, self.j + other.j)

    def __sub__(self, other: "GridPoint") -> "GridPoint":
        return GridPoint(self.i - other.i, self.j - other.j)


@dataclass(frozen=True)
class GridDims:
    """Dimensions (m rows, n cols). Inputs with m > n are transposed."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"grid dimensions must be positive, got {self.m}x{self.n}")
        if self.m > self.n:
            m, n = self.n, self.m
            object.__setattr__(self, "m", m)
            object.__setattr__(self, "n", n)

    @property
    def cell_count(self) -> int:
        return self.m * self.n

    @property
    def diagonal_count(self) -> int:
        return self.m + self.n - 1

    def contains(self, p: GridPoint) -> bool:
        return 1 <= p.i <= self.m and 1 <= p.j <= self.n

    def cells(self) -> Iterator[GridPoint]:
        """All cells in row-major order."""
        for i in range(1, self.m + 1):
            for j in range(1, self.n + 1):
                yield GridPoint(i, j)

    def flat(self, p: GridPoint) -> int:
        """Row-major flat index in [0, m*n)."""
        return (p.i - 1) * self.n + (p.j - 1)

    def point(self, idx: int) -> GridPoint:
        return GridPoint(idx // self.n + 1, idx % self.n + 1)


def diagonal_index(p: GridPoint, dims: GridDims) -> int:
    """Index k of the diagonal containing p, i.e. k = m - i + j."""
    if not dims.contains(p):
        raise ValueError(f"point {p} outside grid {dims.m}x{dims.n}")
    return dims.m - p.i + p.j


def diagonal_in_range(k: int, dims: GridDims) -> bool:
    return 1 <= k <= dims.diagonal_count


def _diagonal_rows(k: int, dims: GridDims) -> tuple[int, int, int]:
    """(d, lo, hi): diagonal k holds the cells (i, i - d) for lo <= i <= hi."""
    if not diagonal_in_range(k, dims):
        raise ValueError(f"diagonal index {k} outside [1, {dims.diagonal_count}]")
    d = dims.m - k  # i - j for every cell on the diagonal
    return d, max(1, d + 1), min(dims.m, dims.n + d)


def diagonal_cells(k: int, dims: GridDims) -> list[GridPoint]:
    """Cells of diagonal k, sorted by row. The diagonals partition the grid."""
    d, lo, hi = _diagonal_rows(k, dims)
    return [GridPoint(i, i - d) for i in range(lo, hi + 1)]


def diagonal_slice(k: int, dims: GridDims) -> slice:
    """Row-major flat ids of diagonal k, in diagonal_cells order, as a slice
    of step n + 1: stepping one row down and one column right."""
    d, lo, hi = _diagonal_rows(k, dims)
    step = dims.n + 1
    return slice((lo - 1) * step - d, (hi - 1) * step - d + 1, step)


@dataclass(frozen=True)
class SolutionTriple:
    """An unordered solution {alpha, beta, gamma} with alpha + beta = gamma.

    (alpha, beta) is stored in lexicographic order so each unordered
    solution has a unique representative. Degenerate means alpha == beta.
    """

    alpha: GridPoint
    beta: GridPoint
    gamma: GridPoint
    degenerate: bool

    def cells(self) -> tuple[GridPoint, ...]:
        return (self.alpha, self.beta, self.gamma)


def enumerate_solutions(dims: GridDims) -> list[SolutionTriple]:
    """Every unordered pair {alpha, beta} (alpha = beta allowed) whose
    component-wise sum stays in the grid, exactly once, sorted canonically.

    For m = 1 the list is empty: row sums are at least 2.
    """
    pts = list(dims.cells())
    out = []
    for a in range(len(pts)):
        p = pts[a]
        if 2 * p.i > dims.m:
            break  # no partner can keep the row sum within m
        for b in range(a, len(pts)):
            q = pts[b]
            if dims.contains(p + q):
                out.append(SolutionTriple(p, q, p + q, p == q))
    return out


def landing_sum(a: int, b: int, dims: GridDims) -> int:
    """Diagonal index of alpha + beta when alpha is on D_a and beta on D_b.

    Pure index arithmetic: the result may fall outside [1, m+n-1], in which
    case no actual point pair realizes it (check with diagonal_in_range).
    """
    return a + b - dims.m


def landing_diff(a: int, b: int, dims: GridDims) -> int:
    """Diagonal index of alpha - beta for alpha on D_a, beta on D_b."""
    return a - b + dims.m


@dataclass(frozen=True)
class Jump:
    """A strict component-wise increase from source to target."""

    source: GridPoint
    target: GridPoint
    delta: GridPoint
    distance: int


def detect_jump(source: GridPoint, target: GridPoint) -> Optional[Jump]:
    """Jump from source to target iff both coordinates strictly increase."""
    if source.i < target.i and source.j < target.j:
        delta = target - source
        return Jump(source, target, delta, delta.i + delta.j)
    return None


def jump_window(source: GridPoint, target: GridPoint, dims: GridDims) -> set[int]:
    """Diagonal indices strictly between the corners of the source/target
    rectangle, excluding the diagonals of source, target and the main
    diagonal, clipped to the grid's diagonal range."""
    if detect_jump(source, target) is None:
        raise ValueError(f"no jump from {source} to {target}")
    a = diagonal_index(source, dims)
    b = diagonal_index(target, dims)
    lo = dims.m + source.j - target.i
    hi = dims.m + target.j - source.i
    window = set(range(max(1, lo + 1), min(dims.diagonal_count, hi - 1) + 1))
    window -= {a, b, dims.m}
    return window


def covered_diagonals(source: GridPoint, target: GridPoint, dims: GridDims) -> set[int]:
    """jump_window plus the two flanking open ranges of width
    min(delta.i, delta.j) just outside the source/target diagonals."""
    jump = detect_jump(source, target)
    if jump is None:
        raise ValueError(f"no jump from {source} to {target}")
    a = diagonal_index(source, dims)
    b = diagonal_index(target, dims)
    ell = min(jump.delta.i, jump.delta.j)
    lo, hi = min(a, b), max(a, b)
    flank = set(range(lo - ell + 1, lo)) | set(range(hi + 1, hi + ell))
    flank = {k for k in flank if diagonal_in_range(k, dims)}
    return jump_window(source, target, dims) | flank


@dataclass(frozen=True)
class CoverVerdict:
    """Which of the two jump claims holds for gamma relative to a jump
    alpha -> beta. covered is False when gamma's diagonal is outside the
    window and flanking ranges (then 'neither' is not a violation)."""

    covered: bool
    alpha_to_gamma: bool
    gamma_to_beta: bool

    @property
    def neither(self) -> bool:
        return not (self.alpha_to_gamma or self.gamma_to_beta)


def jump_cover(
    alpha: GridPoint, beta: GridPoint, gamma: GridPoint, dims: GridDims
) -> CoverVerdict:
    """Evaluate the jump-cover claim: every gamma on a covered diagonal
    either receives a jump from alpha or makes a jump to beta."""
    g = diagonal_index(gamma, dims)
    covered = g in covered_diagonals(alpha, beta, dims)
    return CoverVerdict(
        covered=covered,
        alpha_to_gamma=detect_jump(alpha, gamma) is not None,
        gamma_to_beta=detect_jump(gamma, beta) is not None,
    )
