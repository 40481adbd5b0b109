"""Structure analysis: contributing diagonals, regions, pairs, lemma suite."""

import json
import random

import pytest

from schurgrid import analyzer
from schurgrid.analyzer import (
    LEMMA_CHECKS,
    ContributingMap,
    DiagonalInfo,
    PairRecord,
    check_lemma,
    contributing_map,
    delta_sets,
    find_disjoint_corners,
    find_pairs,
    lemma_suite,
    region_mask,
    structure_report,
    structure_report_json,
)
from schurgrid.coloring import Coloring, s_sequence
from schurgrid.constructions import lower_bound_coloring
from schurgrid.grid import GridDims, GridPoint, diagonal_cells
from schurgrid.search import enumerate_rainbow_free


def test_contributing_map_lower_bound_coloring():
    c = lower_bound_coloring(GridDims(3, 4))
    cmap = contributing_map(c)
    # main diagonal is (1, 1, 6)
    assert cmap.main_palette == {1, 6}
    # colors 4, 5 live below the main diagonal, 7, 3, 2 above
    assert cmap.diagonals[1].contributed_colors == {4}
    assert cmap.diagonals[2].contributed_colors == {5}
    assert cmap.diagonals[4].contributed_colors == {7}
    assert cmap.diagonals[5].contributed_colors == {3}
    assert cmap.diagonals[6].contributed_colors == {2}
    assert 3 not in cmap.diagonals  # the main diagonal is excluded


def test_contributing_least_index_rule():
    # color 2 appears on diagonals 1 and 3 (m = 2); only the first contributes
    c = Coloring(GridDims(2, 2), (1, 2, 2, 1), 2)
    cmap = contributing_map(c)
    assert cmap.diagonals[1].contributed_colors == {2}
    assert cmap.diagonals[3].contributed_colors == set()
    assert cmap.contributing_indices() == [1]
    assert cmap.noncontributing_indices() == [3]


def test_region_mask_undefined_for_monochrome_diagonal():
    c = Coloring(GridDims(2, 2), (1, 2, 3, 1), 3)
    mask = region_mask(c)
    assert not mask.defined


def test_region_mask_translation_sets():
    c = Coloring(GridDims(3, 3), (1, 1, 1, 1, 2, 2, 1, 2, 2), 2)
    mask = region_mask(c)
    assert mask.defined and mask.s2 == 2
    d = GridDims(3, 3)
    step = GridPoint(2, 2)
    for p in d.cells():
        assert (p in mask.w1) == d.contains(p + step)
        assert (p in mask.w2) == d.contains(p - step)
    # Y1 is the lower-left corner block, Y2 the upper-right
    assert mask.y1 == {GridPoint(2, 1), GridPoint(3, 1)}
    assert mask.y2 == {GridPoint(1, 2), GridPoint(1, 3)}


def test_find_pairs_kinds():
    # main palette {1}; off-palette colors on consecutive diagonals
    c = Coloring(GridDims(3, 3), (1, 2, 3, 4, 1, 2, 5, 4, 1), 5)
    pairs = find_pairs(c)
    kinds = {(p.alpha, p.beta): p.kind for p in pairs}
    for (alpha, beta), kind in kinds.items():
        if beta == GridPoint(alpha.i, alpha.j + 1):
            assert kind == "horizontal"
        elif beta == GridPoint(alpha.i - 1, alpha.j):
            assert kind == "vertical"
        else:
            assert kind == "other"
    assert all(c.color_at(p.alpha) != 1 and c.color_at(p.beta) != 1 for p in pairs)


def test_disjoint_corners_empty_when_w_undefined():
    c = Coloring(GridDims(2, 2), (1, 2, 3, 1), 3)
    assert find_disjoint_corners(c) == []


def test_delta_sets_brute_force():
    for m, n in [(3, 3), (3, 5), (4, 6)]:
        d = GridDims(m, n)
        for delta in d.cells():
            ds = delta_sets(delta, d)
            for k in range(1, d.diagonal_count + 1):
                ok = all(
                    d.contains(p + delta) or d.contains(p - delta)
                    for p in diagonal_cells(k, d)
                )
                assert (k in ds.dd) == (ok and k != d.m)
            for p in d.cells():
                neither = not d.contains(p + delta) and not d.contains(p - delta)
                assert (p in ds.sd_cells) == neither


def test_delta_sets_rejects_outside_delta():
    with pytest.raises(ValueError):
        delta_sets(GridPoint(5, 1), GridDims(3, 3))


def test_lemma_suite_covers_registry():
    c = lower_bound_coloring(GridDims(3, 3))
    verdicts = lemma_suite(c)
    assert [v.lemma_id for v in verdicts] == list(LEMMA_CHECKS)


def test_check_lemma_unknown_id():
    c = lower_bound_coloring(GridDims(3, 3))
    with pytest.raises(KeyError):
        check_lemma("no-such-lemma", c)


def test_s_laws_on_valuation_coloring():
    from schurgrid.constructions import valuation_coloring

    c = valuation_coloring(16)
    for name in ("s-doubling", "s2-power-bound", "main-palette-cap"):
        v = check_lemma(name, c, interval=True)
        assert v.applicable and v.holds, (name, v.detail)


def test_one_extra_color_on_lower_bound_construction():
    # each off-diagonal of the construction carries exactly one color
    # outside the main-diagonal palette
    c = lower_bound_coloring(GridDims(3, 4))
    v = check_lemma("one-extra-color", c)
    assert v.applicable and v.holds


# Laws by guard family; three-palette-rainbow states its own hypotheses.
_RAINBOW_FREE = ("s-doubling", "s2-power-bound", "main-palette-cap")
_GRID_RAINBOW_FREE = ("one-extra-color", "no-disjoint-corners")
_TARGET = (
    "noncontributing-cap",
    "palette-at-least-three",
    "offdiagonal-color-budget",
    "jump-distance-lower",
    "jump-distance-upper",
    "no-offdiagonal-jumps",
    "consecutive-contributing-pairs",
    "pair-count-cap",
    "every-offdiagonal-contributes",
    "no-jumps-three-palette",
    "small-block-palette",
    "jump-diagonal-relation",
)


def test_not_applicable_reasons_by_guard_family():
    from schurgrid.constructions import valuation_coloring

    # an exact 9-coloring of 4x4 with a monochromatic main diagonal; rb = 9,
    # so it has a rainbow solution
    rainbow = Coloring(GridDims(4, 4), (1, 2, 3, 4, 5, 1, 6, 7, 8, 9, 1, 1, 1, 1, 1, 1), 9)
    exact_extremal = "needs an exact (m+n+1)-coloring"
    cases = [
        (
            valuation_coloring(16),
            True,
            dict.fromkeys(
                _GRID_RAINBOW_FREE + _TARGET + ("pair-exclusion", "three-palette-rainbow"),
                "interval mode",
            ),
        ),
        (
            rainbow,
            False,
            dict.fromkeys(
                _RAINBOW_FREE + _GRID_RAINBOW_FREE + _TARGET + ("pair-exclusion",),
                "coloring has a rainbow solution",
            ),
        ),
        (
            lower_bound_coloring(GridDims(4, 4)),
            False,
            {
                **dict.fromkeys(_TARGET + ("pair-exclusion",), "needs r = m+n+1 = 9"),
                "three-palette-rainbow": exact_extremal,
            },
        ),
        (
            lower_bound_coloring(GridDims(2, 5)),
            False,
            {
                **dict.fromkeys(_TARGET + ("three-palette-rainbow",), "needs m >= 3"),
                "pair-exclusion": "needs m >= 4",
            },
        ),
        (
            lower_bound_coloring(GridDims(3, 5)),
            False,
            {
                **dict.fromkeys(_TARGET, "needs r = m+n+1 = 9"),
                "pair-exclusion": "needs m >= 4",
                "three-palette-rainbow": exact_extremal,
            },
        ),
    ]
    assert set(_RAINBOW_FREE + _GRID_RAINBOW_FREE + _TARGET) | {
        "pair-exclusion",
        "three-palette-rainbow",
    } == set(LEMMA_CHECKS)
    for c, interval, want in cases:
        got = {v.lemma_id: v.detail for v in lemma_suite(c, interval) if not v.applicable}
        assert got == want, (c.dims, interval)


def test_structure_report_shape():
    c = lower_bound_coloring(GridDims(3, 3))
    rep = structure_report(c)
    assert rep["m"] == 3 and rep["n"] == 3 and rep["r"] == 6
    assert rep["exact"] is True and rep["rainbow_free"] is True
    assert {e["k"] for e in rep["diagonals"]} == {1, 2, 4, 5}
    assert {v["lemma"] for v in rep["verdicts"]} == set(LEMMA_CHECKS)
    parsed = json.loads(structure_report_json(c))
    assert parsed == rep


def test_structure_report_runs_each_sweep_once(monkeypatch):
    # the report and its verdicts share one context: one rainbow sweep and
    # one contributing map per report
    from schurgrid import analyzer
    from schurgrid.solutions import SolutionIndex

    c = lower_bound_coloring(GridDims(5, 7))
    calls = {"find_rainbow": 0, "contributing_map": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        SolutionIndex, "find_rainbow", counted("find_rainbow", SolutionIndex.find_rainbow)
    )
    monkeypatch.setattr(
        analyzer, "contributing_map", counted("contributing_map", analyzer.contributing_map)
    )
    structure_report(c)
    assert calls == {"find_rainbow": 1, "contributing_map": 1}


# Plain GridPoint references for the flat-index analyzer: diagonals as
# diagonal_cells lists, pairs by point comparison, regions as cell sets.


def _ref_contributing_map(c: Coloring) -> ContributingMap:
    dims = c.dims
    main = frozenset(c.main_diagonal_colors())
    seen: set[int] = set()
    info = {}
    for k in range(1, dims.diagonal_count + 1):
        palette = frozenset(c.color_at(p) for p in diagonal_cells(k, dims))
        if k != dims.m:
            extra = palette - main
            contributed = frozenset(x for x in extra if x not in seen)
            info[k] = DiagonalInfo(k, palette, extra, contributed)
        seen |= palette
    return ContributingMap(main, info)


class _RefMask:
    def __init__(self, c: Coloring):
        dims = c.dims
        ss = s_sequence(c)
        self.defined = ss.ell >= 2
        self.s2 = ss.values[1] if self.defined else None
        self.w1, self.w2, self.y1, self.y2 = set(), set(), set(), set()
        if not self.defined:
            return
        step = GridPoint(self.s2, self.s2)
        for p in dims.cells():
            if dims.contains(p + step):
                self.w1.add(p)
            if dims.contains(p - step):
                self.w2.add(p)
            if p.i + self.s2 > dims.m and p.j < self.s2:
                self.y1.add(p)
            if p.i < self.s2 and p.j + self.s2 > dims.n:
                self.y2.add(p)
        self.w = self.w1 | self.w2

    def in_w(self, p: GridPoint) -> bool:
        return self.defined and p in self.w

    def meets(self, pair: PairRecord) -> bool:
        return self.defined and bool(pair.cells() & self.w)


def _ref_find_pairs(c: Coloring, cmap=None) -> list[PairRecord]:
    dims = c.dims
    cmap = cmap or _ref_contributing_map(c)
    main = cmap.main_palette
    out = []
    for a in range(1, dims.diagonal_count):
        if a == dims.m or a + 1 == dims.m:
            continue
        if not (cmap.diagonals[a].contributing and cmap.diagonals[a + 1].contributing):
            continue
        for alpha in diagonal_cells(a, dims):
            ca = c.color_at(alpha)
            if ca in main:
                continue
            for beta in diagonal_cells(a + 1, dims):
                cb = c.color_at(beta)
                if cb in main:
                    continue
                if beta == GridPoint(alpha.i, alpha.j + 1):
                    kind = "horizontal"
                elif beta == GridPoint(alpha.i - 1, alpha.j):
                    kind = "vertical"
                else:
                    kind = "other"
                out.append(PairRecord(kind, alpha, beta, (ca, cb), a))
    return out


_REFERENCE_GRIDS = [(m, n) for m in range(1, 5) for n in range(max(m, 3), 7)]


def _reference_corpus():
    """Every extremal class of the grids up to 4x6 with m >= 2, and random
    colorings with r in {3, m+n, m+n+1}: one batch as drawn and one per
    forced s2 = 2..m, or m + 1 for a monochromatic main diagonal."""
    rng = random.Random(29)
    out = []
    for m, n in _REFERENCE_GRIDS:
        d = GridDims(m, n)
        if m >= 2:
            out += list(enumerate_rainbow_free(d, m + n))
        for r in sorted({3, m + n, m + n + 1}):
            if r > d.cell_count:
                continue
            for s2 in [None, *range(2, m + 2)]:
                for _ in range(3):
                    cells = [rng.randint(1, r) for _ in range(d.cell_count)]
                    if s2 is not None:
                        for x in range(1, min(s2, m) + 1):
                            cells[(x - 1) * (n + 1)] = 1 if x < s2 else 2
                    out.append(Coloring(d, tuple(cells), r))
    return out


def test_flat_analyzer_matches_gridpoint_reference():
    s2_seen: dict[tuple[int, int], set] = {}
    for c in _reference_corpus():
        cmap = contributing_map(c)
        assert cmap == _ref_contributing_map(c)
        assert find_pairs(c, cmap) == _ref_find_pairs(c)
        mask, ref = region_mask(c), _RefMask(c)
        assert (mask.defined, mask.s2) == (ref.defined, ref.s2)
        assert (mask.w1, mask.w2, mask.y1, mask.y2) == (ref.w1, ref.w2, ref.y1, ref.y2)
        assert all(mask.in_w(p) == ref.in_w(p) for p in c.dims.cells())
        s2_seen.setdefault((c.dims.m, c.dims.n), set()).add(mask.s2)
    for m, n in _REFERENCE_GRIDS:
        assert s2_seen[(m, n)] >= {None, *range(2, m + 1)}, (m, n)


def test_structure_report_matches_gridpoint_reference(monkeypatch):
    corpus = _reference_corpus()
    want = [structure_report_json(c) for c in corpus]
    monkeypatch.setattr(analyzer, "contributing_map", _ref_contributing_map)
    monkeypatch.setattr(analyzer, "region_mask", _RefMask)
    monkeypatch.setattr(analyzer, "find_pairs", _ref_find_pairs)
    got = [structure_report_json(c) for c in corpus]
    assert got == want
    assert any(json.loads(x)["corners"] for x in got)
