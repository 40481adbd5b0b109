"""Coloring model: validation, canonical forms, merges, s-sequences."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schurgrid.coloring import (
    Coloring,
    canonicalize,
    is_exact,
    is_rainbow,
    merge_colors,
    rgs_relabel,
    s_sequence,
    s_sequence_of,
)
from schurgrid.grid import GridDims, GridPoint, SolutionTriple
from schurgrid.solutions import grid_index, is_rainbow_free


def test_validation():
    d = GridDims(2, 2)
    with pytest.raises(ValueError):
        Coloring(d, (1, 2, 3), 3)  # wrong cell count
    with pytest.raises(ValueError, match="cell color 4 outside"):
        Coloring(d, (1, 2, 3, 4), 3)  # color above r
    with pytest.raises(ValueError, match="cell color 0 outside"):
        Coloring(d, (0, 1, 1, 1), 1)  # colors are 1-based


def test_rows_and_text_roundtrip():
    c = Coloring(GridDims(2, 3), (1, 1, 2, 3, 1, 2), 3)
    assert c.rows() == [[1, 1, 2], [3, 1, 2]]
    assert Coloring.from_text(c.to_text()) == c


def test_color_at_and_main_diagonal():
    c = Coloring(GridDims(2, 3), (1, 2, 3, 4, 5, 6), 6)
    assert c.color_at(GridPoint(2, 1)) == 4
    assert c.main_diagonal_colors() == (1, 5)


def test_is_exact():
    d = GridDims(2, 2)
    assert is_exact(Coloring(d, (1, 2, 3, 4), 4))
    assert not is_exact(Coloring(d, (1, 1, 2, 2), 3))


def test_rgs_relabel():
    assert rgs_relabel([5, 5, 2, 5, 9]) == (1, 1, 2, 1, 3)
    assert rgs_relabel([1, 2, 3]) == (1, 2, 3)


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=6, max_size=6))
def test_canonicalize_idempotent(cells):
    c = Coloring(GridDims(2, 3), tuple(cells), 6)
    assert canonicalize(canonicalize(c)) == canonicalize(c)


@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=6, max_size=6),
    st.permutations([1, 2, 3, 4]),
)
def test_canonicalize_permutation_invariant(cells, perm):
    d = GridDims(2, 3)
    c = Coloring(d, tuple(cells), 4)
    permuted = Coloring(d, tuple(perm[x - 1] for x in cells), 4)
    assert canonicalize(c).cells == canonicalize(permuted).cells


def test_merge_colors_counts():
    c = Coloring(GridDims(2, 2), (1, 2, 3, 4), 4)
    merged = merge_colors(c, 4, 1)
    assert merged.r == 3
    assert is_exact(merged)
    with pytest.raises(ValueError):
        merge_colors(c, 2, 2)


@given(st.lists(st.integers(min_value=1, max_value=8), min_size=8, max_size=8))
def test_merge_preserves_rainbow_freeness(cells):
    # merging two color classes can only destroy rainbow triples
    d = GridDims(2, 4)
    c = Coloring(d, rgs_relabel(cells), len(set(cells)))
    index = grid_index(d.m, d.n)
    if is_rainbow_free(c, index) and c.r >= 2:
        merged = merge_colors(c, c.r, 1)
        assert is_rainbow_free(merged, index)


def test_degenerate_never_rainbow():
    t = SolutionTriple(GridPoint(1, 1), GridPoint(1, 1), GridPoint(2, 2), True)
    c = Coloring(GridDims(2, 2), (1, 2, 3, 4), 4)
    assert not is_rainbow(t, c)


def test_rainbow_requires_three_colors():
    d = GridDims(2, 2)
    t = SolutionTriple(GridPoint(1, 1), GridPoint(1, 2), GridPoint(2, 3), False)
    d2 = GridDims(2, 3)
    c = Coloring(d2, (1, 2, 1, 1, 1, 3), 3)
    assert is_rainbow(t, c)
    c2 = Coloring(d2, (1, 1, 1, 1, 1, 3), 3)
    assert not is_rainbow(t, c2)
    del d


def test_s_sequence_of():
    ss = s_sequence_of((4, 4, 7, 4, 7, 2))
    assert ss.values == (1, 3, 6)
    assert ss.ell == 3
    assert ss.s2 == 3


def test_s_sequence_reads_main_diagonal():
    c = Coloring(GridDims(3, 3), (1, 9, 9, 9, 1, 9, 9, 9, 2), 9)
    assert s_sequence(c).values == (1, 3)
