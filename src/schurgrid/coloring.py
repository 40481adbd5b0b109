"""Colorings of the grid: exactness, canonical forms, rainbow detection.

A coloring is a flat row-major tuple of 1-based color ids together with a
declared color count r. Canonical form is the restricted growth string:
scanning row-major, the first occurrence of each new color receives the
smallest unused id, which quotients out color permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .grid import GridDims, GridPoint, SolutionTriple


@dataclass(frozen=True)
class Coloring:
    dims: GridDims
    cells: tuple[int, ...]
    r: int

    def __post_init__(self) -> None:
        if len(self.cells) != self.dims.cell_count:
            raise ValueError(
                f"expected {self.dims.cell_count} cells, got {len(self.cells)}"
            )
        if self.r < 1:
            raise ValueError(f"color count must be positive, got {self.r}")
        lo, hi = min(self.cells), max(self.cells)
        if lo < 1 or hi > self.r:
            bad = lo if lo < 1 else hi
            raise ValueError(f"cell color {bad} outside [1, {self.r}]")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], r: int | None = None) -> "Coloring":
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("rows of unequal length")
        cells = tuple(c for row in rows for c in row)
        dims = GridDims(len(rows), len(rows[0]))
        if dims.m != len(rows):  # constructor transposed; rebuild cells to match
            cells = tuple(rows[i][j] for j in range(len(rows[0])) for i in range(len(rows)))
        return cls(dims, cells, max(cells) if r is None else r)

    def color_at(self, p: GridPoint) -> int:
        return self.cells[self.dims.flat(p)]

    def rows(self) -> list[list[int]]:
        n = self.dims.n
        return [list(self.cells[i * n : (i + 1) * n]) for i in range(self.dims.m)]

    def main_diagonal_colors(self) -> tuple[int, ...]:
        return tuple(self.cells[(x - 1) * self.dims.n + (x - 1)] for x in range(1, self.dims.m + 1))

    def to_text(self) -> str:
        lines = [str(self.r)]
        lines += [" ".join(str(c) for c in row) for row in self.rows()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Coloring":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        r = int(lines[0])
        rows = [[int(tok) for tok in ln.split()] for ln in lines[1:]]
        return cls.from_rows(rows, r)


def is_exact(c: Coloring) -> bool:
    """True iff every color in [1, r] is used."""
    return len(set(c.cells)) == c.r


def canonicalize(c: Coloring) -> Coloring:
    """Restricted-growth-string relabeling; idempotent. Two colorings have
    equal canonical forms iff they differ by a color permutation."""
    return Coloring(c.dims, rgs_relabel(c.cells), c.r)


def rgs_relabel(cells: Iterable[int]) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    out = []
    for c in cells:
        if c not in relabel:
            relabel[c] = len(relabel) + 1
        out.append(relabel[c])
    return tuple(out)


def merge_colors(c: Coloring, src: int, dst: int) -> Coloring:
    """Recolor every src cell to dst, then re-canonicalize. An exact
    r-coloring becomes an exact (r-1)-coloring; merging can never create a
    rainbow triple."""
    if src == dst:
        raise ValueError("merge requires two distinct colors")
    if not (1 <= src <= c.r and 1 <= dst <= c.r):
        raise ValueError(f"colors must lie in [1, {c.r}]")
    merged = tuple(dst if x == src else x for x in c.cells)
    return Coloring(c.dims, rgs_relabel(merged), len(set(merged)))


def is_rainbow(t: SolutionTriple, c: Coloring) -> bool:
    """Degenerate triples are never rainbow; otherwise the three cells must
    carry pairwise distinct colors."""
    if t.degenerate:
        return False
    ca = c.color_at(t.alpha)
    cb = c.color_at(t.beta)
    cg = c.color_at(t.gamma)
    return ca != cb and ca != cg and cb != cg


@dataclass(frozen=True)
class SSequence:
    """First-occurrence positions of new colors along the main diagonal.

    values[k-1] is the least x with c((x,x)) differing from all earlier
    picks; ell is the number of distinct colors on the main diagonal.
    """

    values: tuple[int, ...]
    ell: int

    @property
    def s2(self) -> int | None:
        return self.values[1] if len(self.values) >= 2 else None


def s_sequence_of(colors: Sequence[int]) -> SSequence:
    seen: set[int] = set()
    values = []
    for x, col in enumerate(colors, start=1):
        if col not in seen:
            seen.add(col)
            values.append(x)
    return SSequence(tuple(values), len(seen))


def s_sequence(c: Coloring) -> SSequence:
    return s_sequence_of(c.main_diagonal_colors())
