"""Structural analysis of a coloring: contributing diagonals, translation
regions, consecutive contributing pairs, corners, delta-diagonal sets, and
the structural-law suite evaluated as per-coloring predicates.

The analysis works on the coloring's flat row-major cells: diagonal k is
the strided slice diagonal_slice(k) of Coloring.cells, pairs are classified
by the difference of their flat ids, and the translation regions are two
rectangles tested by a membership predicate rather than stored as sets.
GridPoints are made only for what a caller reads (pair records, region
sets).

Every logarithmic bound is checked in exact integer arithmetic
(floor(log2 m) via bit_length, fractional comparisons cross-multiplied),
so verdicts are bit-exact.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from .coloring import Coloring, SSequence, is_exact, s_sequence, s_sequence_of
from .grid import (
    GridDims,
    GridPoint,
    diagonal_cells,
    diagonal_index,
    diagonal_slice,
)
from .solutions import SolutionIndex, index_for, is_rainbow_free


# ---------------------------------------------------------------------------
# contributing diagonals


@dataclass(frozen=True)
class DiagonalInfo:
    k: int
    palette: frozenset[int]
    extra_colors: frozenset[int]  # palette minus main-diagonal palette
    contributed_colors: frozenset[int]  # extras not seen in any earlier diagonal

    @property
    def contributing(self) -> bool:
        return bool(self.contributed_colors)


@dataclass(frozen=True)
class ContributingMap:
    main_palette: frozenset[int]
    diagonals: dict[int, DiagonalInfo]  # keyed by k, main diagonal excluded

    def contributing_indices(self) -> list[int]:
        return sorted(k for k, d in self.diagonals.items() if d.contributing)

    def noncontributing_indices(self) -> list[int]:
        return sorted(k for k, d in self.diagonals.items() if not d.contributing)


def contributing_map(c: Coloring) -> ContributingMap:
    """Scan diagonals in increasing index; a diagonal contributes the colors
    outside the main-diagonal palette that no earlier diagonal carries."""
    dims = c.dims
    main = frozenset(c.main_diagonal_colors())
    seen: set[int] = set()
    info: dict[int, DiagonalInfo] = {}
    for k in range(1, dims.diagonal_count + 1):
        palette = frozenset(c.cells[diagonal_slice(k, dims)])
        if k != dims.m:
            extra = palette - main
            contributed = frozenset(x for x in extra if x not in seen)
            info[k] = DiagonalInfo(k, palette, extra, contributed)
        seen |= palette
    return ContributingMap(main, info)


# ---------------------------------------------------------------------------
# W / Y regions


def _block(rows: range, cols: range) -> frozenset[GridPoint]:
    return frozenset(GridPoint(i, j) for i in rows for j in cols)


@dataclass(frozen=True)
class RegionMask:
    """Cells translatable by (s2, s2): W1 = [1..m-s2]x[1..n-s2] forward,
    W2 = [s2+1..m]x[s2+1..n] backward; Y1 and Y2 the two excluded corner
    blocks. Undefined (s2 None) when the main diagonal is monochromatic.
    s2 is a main-diagonal position, so 2 <= s2 <= m <= n.

    The literal text of the Y2 bound compares the column against m; the
    intended region is the top-right corner, which needs n.
    """

    dims: GridDims
    s2: Optional[int]

    @property
    def defined(self) -> bool:
        return self.s2 is not None

    def in_w(self, p: GridPoint) -> bool:
        """Whether the grid cell p lies in W = W1 | W2."""
        s2 = self.s2
        if s2 is None:
            return False
        return (p.i + s2 <= self.dims.m and p.j + s2 <= self.dims.n) or (p.i > s2 and p.j > s2)

    def meets(self, pair: PairRecord) -> bool:
        return self.in_w(pair.alpha) or self.in_w(pair.beta)

    # the regions as cell sets, built on each read

    @property
    def w1(self) -> frozenset[GridPoint]:
        if self.s2 is None:
            return frozenset()
        return _block(range(1, self.dims.m - self.s2 + 1), range(1, self.dims.n - self.s2 + 1))

    @property
    def w2(self) -> frozenset[GridPoint]:
        if self.s2 is None:
            return frozenset()
        return _block(range(self.s2 + 1, self.dims.m + 1), range(self.s2 + 1, self.dims.n + 1))

    @property
    def y1(self) -> frozenset[GridPoint]:
        if self.s2 is None:
            return frozenset()
        return _block(range(self.dims.m - self.s2 + 1, self.dims.m + 1), range(1, self.s2))

    @property
    def y2(self) -> frozenset[GridPoint]:
        if self.s2 is None:
            return frozenset()
        return _block(range(1, self.s2), range(self.dims.n - self.s2 + 1, self.dims.n + 1))

    @property
    def w(self) -> frozenset[GridPoint]:
        return self.w1 | self.w2


def region_mask(c: Coloring) -> RegionMask:
    return RegionMask(c.dims, s_sequence(c).s2)


# ---------------------------------------------------------------------------
# consecutive contributing pairs and corners


@dataclass(frozen=True)
class PairRecord:
    kind: str  # horizontal | vertical | other
    alpha: GridPoint  # on D_a
    beta: GridPoint  # on D_{a+1}
    colors: tuple[int, int]
    diag: int  # a

    def cells(self) -> frozenset[GridPoint]:
        return frozenset((self.alpha, self.beta))


def find_pairs(c: Coloring, cmap: Optional[ContributingMap] = None) -> list[PairRecord]:
    """All element pairs across consecutive contributing off-diagonals whose
    colors avoid the main-diagonal palette. On consecutive diagonals a flat
    step of +1 is one column right and of -n one row up."""
    dims = c.dims
    cmap = cmap or contributing_map(c)
    main = cmap.main_palette
    ids = range(dims.cell_count)
    # (flat id, point, color) of each contributing diagonal's off-main cells
    off_main: dict[int, list[tuple[int, GridPoint, int]]] = {}
    for k in cmap.contributing_indices():
        s = diagonal_slice(k, dims)
        off_main[k] = [
            (f, dims.point(f), col) for f, col in zip(ids[s], c.cells[s]) if col not in main
        ]
    out = []
    for a in range(1, dims.diagonal_count):
        if a not in off_main or a + 1 not in off_main:
            continue
        for fa, alpha, ca in off_main[a]:
            for fb, beta, cb in off_main[a + 1]:
                step = fb - fa
                kind = "horizontal" if step == 1 else "vertical" if step == -dims.n else "other"
                out.append(PairRecord(kind, alpha, beta, (ca, cb), a))
    return out


@dataclass(frozen=True)
class CornerRecord:
    vertical: PairRecord
    horizontal: PairRecord
    strict_colors: bool  # the four cell colors pairwise distinct


def find_disjoint_corners(
    c: Coloring,
    mask: Optional[RegionMask] = None,
    pairs: Optional[list[PairRecord]] = None,
) -> list[CornerRecord]:
    """All (vertical, horizontal) pair combinations that are cell-disjoint
    and each meet W. Empty whenever W is undefined."""
    mask = mask if mask is not None else region_mask(c)
    if not mask.defined:
        return []
    pairs = pairs if pairs is not None else find_pairs(c)
    verts = [p for p in pairs if p.kind == "vertical" and mask.meets(p)]
    hors = [p for p in pairs if p.kind == "horizontal" and mask.meets(p)]
    out = []
    for pv in verts:
        for ph in hors:
            if pv.cells() & ph.cells():
                continue
            out.append(CornerRecord(pv, ph, len(set(pv.colors + ph.colors)) == 4))
    return out


# ---------------------------------------------------------------------------
# delta-diagonal sets


@dataclass(frozen=True)
class DeltaDiagonalSets:
    """Off-diagonals whose every cell can translate by +delta or -delta
    within the grid, and the cells that can do neither."""

    delta: GridPoint
    dd: frozenset[int]
    sd_cells: frozenset[GridPoint]

    def count_lower_bound_holds(self, dims: GridDims) -> bool:
        d = self.delta
        return len(self.dd) >= dims.m + dims.n - 2 * d.i - 2 * d.j


def delta_sets(delta: GridPoint, dims: GridDims) -> DeltaDiagonalSets:
    if not dims.contains(delta):
        raise ValueError(f"delta {delta} outside grid {dims.m}x{dims.n}")
    dd = set()
    sd = set()
    for k in range(1, dims.diagonal_count + 1):
        cells = diagonal_cells(k, dims)
        ok = all(dims.contains(p + delta) or dims.contains(p - delta) for p in cells)
        if ok and k != dims.m:
            dd.add(k)
    for p in dims.cells():
        if not dims.contains(p + delta) and not dims.contains(p - delta):
            sd.add(p)
    return DeltaDiagonalSets(delta, frozenset(dd), frozenset(sd))


# ---------------------------------------------------------------------------
# the structural-law suite


@dataclass(frozen=True)
class LemmaVerdict:
    lemma_id: str
    applicable: bool
    holds: Optional[bool]  # meaningful only when applicable
    detail: str = ""


class _Ctx:
    """Shared lazily-computed facts about one coloring."""

    def __init__(self, c: Coloring, interval: bool):
        self.c = c
        self.dims = c.dims
        self.interval = interval

    @cached_property
    def index(self) -> SolutionIndex:
        return index_for(self.dims, self.interval)

    @cached_property
    def rainbow_free(self) -> bool:
        return is_rainbow_free(self.c, self.index)

    @cached_property
    def exact(self) -> bool:
        return is_exact(self.c)

    @cached_property
    def ss(self) -> SSequence:
        if self.interval:
            return s_sequence_of(self.c.cells)
        return s_sequence(self.c)

    @property
    def length_bound(self) -> int:
        # the "[m]" the s-sequence lives in: the main diagonal, or the
        # whole interval in interval mode
        return self.dims.n if self.interval else self.dims.m

    @cached_property
    def cmap(self) -> ContributingMap:
        return contributing_map(self.c)

    @cached_property
    def mask(self) -> RegionMask:
        return region_mask(self.c)

    @cached_property
    def pairs(self) -> list[PairRecord]:
        return find_pairs(self.c, self.cmap)

    @cached_property
    def corners(self) -> list[CornerRecord]:
        return find_disjoint_corners(self.c, self.mask, self.pairs)

    @cached_property
    def off_palette_jumps(self) -> list[tuple[GridPoint, GridPoint]]:
        """Pairs p < q (strictly in both coordinates) of distinct colors
        outside the main-diagonal palette."""
        main = self.cmap.main_palette
        pts = list(self.dims.cells())
        out = []
        for p in pts:
            for q in pts:
                if p.i < q.i and p.j < q.j:
                    cp, cq = self.c.color_at(p), self.c.color_at(q)
                    if cp not in main and cq not in main and cp != cq:
                        out.append((p, q))
        return out


# A guard gives the reason its law does not apply to a coloring, or "".
_Guard = Callable[[_Ctx], str]
# A law body gives (holds, detail), or (None, reason) when the law's own
# extra precondition fails.
_Outcome = tuple[Optional[bool], str]

LEMMA_CHECKS: dict[str, Callable[[_Ctx], LemmaVerdict]] = {}


def _grid_only(ctx: _Ctx) -> str:
    return "interval mode" if ctx.interval else ""


def _rainbow_free(ctx: _Ctx) -> str:
    return "" if ctx.rainbow_free else "coloring has a rainbow solution"


def _target(min_m: int) -> _Guard:
    """Exact rainbow-free (m+n+1)-coloring with min_m <= m <= n."""

    def guard(ctx: _Ctx) -> str:
        dims = ctx.dims
        if ctx.interval:
            return "interval mode"
        if dims.m < min_m:
            return f"needs m >= {min_m}"
        if not ctx.exact:
            return "coloring not exact"
        if ctx.c.r != dims.m + dims.n + 1:
            return f"needs r = m+n+1 = {dims.m + dims.n + 1}"
        return _rainbow_free(ctx)

    return guard


def _law(lemma_id: str, *guards: _Guard):
    """Register a law in LEMMA_CHECKS. Its guards run in order before its
    body; the first that gives a reason makes the law not applicable."""

    def register(body: Callable[[_Ctx], _Outcome]) -> Callable[[_Ctx], LemmaVerdict]:
        def check(ctx: _Ctx) -> LemmaVerdict:
            for guard in guards:
                reason = guard(ctx)
                if reason:
                    return LemmaVerdict(lemma_id, False, None, reason)
            holds, detail = body(ctx)
            return LemmaVerdict(lemma_id, holds is not None, holds, detail)

        LEMMA_CHECKS[lemma_id] = check
        return check

    return register


@_law("s-doubling", _rainbow_free)
def _check_s_doubling(ctx: _Ctx) -> _Outcome:
    v = ctx.ss.values
    for i in range(len(v) - 1):
        if v[i + 1] < 2 * v[i]:
            return False, f"s{i+2}={v[i+1]} < 2*s{i+1}={2*v[i]}"
    for i, x in enumerate(v):
        if x < 1 << i:
            return False, f"s{i+1}={x} < 2^{i}"
    return True, ""


@_law("s2-power-bound", _rainbow_free)
def _check_s2_power(ctx: _Ctx) -> _Outcome:
    ell = ctx.ss.ell
    if ell < 2:
        return True, "single color, bound vacuous"
    s2 = ctx.ss.values[1]
    return s2 * (1 << (ell - 2)) <= ctx.length_bound, f"s2={s2}, ell={ell}"


@_law("main-palette-cap", _rainbow_free)
def _check_palette_cap(ctx: _Ctx) -> _Outcome:
    ell = ctx.ss.ell
    bound = ctx.length_bound
    ok = ell <= bound.bit_length()
    if ok and ell >= 2:
        # the sharper form: ell <= log2(bound / s2) + 2
        ok = ctx.ss.values[1] * (1 << (ell - 2)) <= bound
    return ok, f"ell={ell}, floor(log2)+1={bound.bit_length()}"


@_law("one-extra-color", _grid_only, _rainbow_free)
def _check_one_extra_color(ctx: _Ctx) -> _Outcome:
    for k, d in ctx.cmap.diagonals.items():
        if len(d.extra_colors) > 1:
            return False, f"diagonal {k} carries extras {sorted(d.extra_colors)}"
    return True, ""


@_law("noncontributing-cap", _target(3))
def _check_noncontributing_cap(ctx: _Ctx) -> _Outcome:
    bad = ctx.cmap.noncontributing_indices()
    cap = ctx.ss.ell - 3
    return len(bad) <= cap, f"{len(bad)} noncontributing, cap {cap}"


@_law("palette-at-least-three", _target(3))
def _check_palette_at_least_three(ctx: _Ctx) -> _Outcome:
    return ctx.ss.ell >= 3, f"ell={ctx.ss.ell}"


@_law("no-disjoint-corners", _grid_only, _rainbow_free)
def _check_no_disjoint_corners(ctx: _Ctx) -> _Outcome:
    if not ctx.mask.defined:
        return True, "W undefined, vacuously true"
    n_all = len(ctx.corners)
    n_strict = sum(1 for x in ctx.corners if x.strict_colors)
    return n_all == 0, f"{n_all} corners ({n_strict} with 4 distinct colors)"


@_law("offdiagonal-color-budget", _target(3))
def _check_offdiag_color_budget(ctx: _Ctx) -> _Outcome:
    dims = ctx.dims
    main = ctx.cmap.main_palette
    off_colors = len(set(ctx.c.cells) - main)
    for p in dims.cells():
        if ctx.c.color_at(p) in main:
            continue
        dd = len(delta_sets(p, dims).dd)
        # off_colors <= m + n - 1/2 - |dd|/3, cross-multiplied by 6
        if 6 * off_colors > 6 * (dims.m + dims.n) - 3 - 2 * dd:
            return False, f"delta={p}, |dd|={dd}, off colors {off_colors}"
    return True, ""


@_law("jump-distance-lower", _target(3))
def _check_jump_distance_lower(ctx: _Ctx) -> _Outcome:
    dims = ctx.dims
    main = ctx.cmap.main_palette
    floor_log = dims.m.bit_length()  # floor(log2 m) + 1
    for p in dims.cells():
        if ctx.c.color_at(p) in main:
            continue
        if 4 * (p.i + p.j) < 4 * dims.m + 9 - 6 * floor_log:
            return False, f"delta={p} too short"
    return True, ""


@_law("jump-distance-upper", _target(3))
def _check_jump_distance_upper(ctx: _Ctx) -> _Outcome:
    m = ctx.dims.m
    for p, q in ctx.off_palette_jumps:
        d = (q.i - p.i) + (q.j - p.j)
        # d <= 2 log2(m) + 1  <=>  2^(d-1) <= m^2
        if 1 << (d - 1) > m * m:
            return False, f"jump {p}->{q} distance {d}"
    return True, ""


@_law("no-offdiagonal-jumps", _target(3))
def _check_no_offdiag_jumps(ctx: _Ctx) -> _Outcome:
    if ctx.off_palette_jumps:
        p, q = ctx.off_palette_jumps[0]
        return False, f"jump {p}->{q} between distinct off-palette colors"
    return True, ""


def _count_consecutive_contributing(ctx: _Ctx) -> int:
    contributing = set(ctx.cmap.contributing_indices())
    dims = ctx.dims
    return sum(
        1
        for x in range(1, dims.diagonal_count)
        if x != dims.m and x + 1 != dims.m and x in contributing and x + 1 in contributing
    )


@_law("consecutive-contributing-pairs", _target(3))
def _check_consecutive_contributing(ctx: _Ctx) -> _Outcome:
    if ctx.ss.ell < 2:
        return None, "s2 undefined"
    count = _count_consecutive_contributing(ctx)
    dims = ctx.dims
    s2 = ctx.ss.values[1]
    q = dims.m + dims.n - 2 - count
    # count >= m + n - 2 log2(m / s2) - 2  <=>  (m/s2)^2 >= 2^q
    holds = q <= 0 or dims.m * dims.m >= s2 * s2 * (1 << q)
    return holds, f"{count} consecutive contributing pairs"


@_law("pair-count-cap", _target(3))
def _check_pair_count_cap(ctx: _Ctx) -> _Outcome:
    nh = sum(1 for p in ctx.pairs if p.kind == "horizontal")
    nv = sum(1 for p in ctx.pairs if p.kind == "vertical")
    dims = ctx.dims
    holds = nh <= dims.n - 1 and nv <= dims.m - 1
    return holds, f"{nh} horizontal, {nv} vertical"


@_law("every-offdiagonal-contributes", _target(3))
def _check_every_offdiag_contributes(ctx: _Ctx) -> _Outcome:
    if ctx.ss.ell != 3:
        return None, f"needs 3 main-diagonal colors, got {ctx.ss.ell}"
    counts = Counter(ctx.c.cells)
    for k, d in ctx.cmap.diagonals.items():
        if len(d.contributed_colors) != 1:
            return False, f"diagonal {k} contributes {len(d.contributed_colors)} colors"
        (color,) = d.contributed_colors
        if counts[color] != ctx.c.cells[diagonal_slice(k, ctx.dims)].count(color):
            return False, f"color {color} escapes diagonal {k}"
    return True, ""


@_law("no-jumps-three-palette", _target(3))
def _check_no_jumps_three_palette(ctx: _Ctx) -> _Outcome:
    if ctx.ss.ell != 3:
        return None, f"needs 3 main-diagonal colors, got {ctx.ss.ell}"
    bad = ctx.off_palette_jumps
    return not bad, f"{len(bad)} offending jumps"


@_law("small-block-palette", _target(3))
def _check_small_block_palette(ctx: _Ctx) -> _Outcome:
    if ctx.ss.ell < 3:
        return None, "s3 undefined"
    s3 = ctx.ss.values[2]
    main = ctx.cmap.main_palette
    for i in range(1, min(s3, ctx.dims.m + 1)):
        for j in range(1, min(s3, ctx.dims.n + 1)):
            if ctx.c.color_at(GridPoint(i, j)) not in main:
                return False, f"({i},{j}) colored outside the main palette"
    return True, ""


@_law("three-palette-rainbow")
def _check_three_palette_rainbow(ctx: _Ctx) -> _Outcome:
    if ctx.interval:
        return None, "interval mode"
    dims = ctx.dims
    if dims.m < 3:
        return None, "needs m >= 3"
    if not ctx.exact or ctx.c.r != dims.m + dims.n + 1:
        return None, "needs an exact (m+n+1)-coloring"
    if ctx.ss.ell > 3:
        return None, f"needs at most 3 main-diagonal colors, got {ctx.ss.ell}"
    return not ctx.rainbow_free, "rainbow solution must exist"


@_law("jump-diagonal-relation", _target(3))
def _check_jump_diagonal_relation(ctx: _Ctx) -> _Outcome:
    dims = ctx.dims
    for p, q in ctx.off_palette_jumps:
        t = diagonal_index(q - p, dims)
        b = diagonal_index(q, dims)
        if 2 * dims.m - t != b:
            return False, f"jump {p}->{q}: 2m-t={2*dims.m-t} != b={b}"
    return True, ""


@_law("pair-exclusion", _target(4))
def _check_pair_exclusion(ctx: _Ctx) -> _Outcome:
    if not ctx.mask.defined:
        return None, "W undefined"
    mask = ctx.mask
    s2 = mask.s2
    nh = sum(1 for p in ctx.pairs if p.kind == "horizontal")
    nv = sum(1 for p in ctx.pairs if p.kind == "vertical")
    h_in_w = any(p.kind == "horizontal" and mask.meets(p) for p in ctx.pairs)
    v_in_w = any(p.kind == "vertical" and mask.meets(p) for p in ctx.pairs)
    if h_in_w and nv > 2 * s2 - 2:
        return False, f"{nv} vertical pairs > {2*s2-2}"
    if v_in_w and nh > 2 * s2 - 2:
        return False, f"{nh} horizontal pairs > {2*s2-2}"
    return True, ""


def _verdicts(ctx: _Ctx) -> list[LemmaVerdict]:
    return [check(ctx) for check in LEMMA_CHECKS.values()]


def lemma_suite(c: Coloring, interval: bool = False) -> list[LemmaVerdict]:
    """Evaluate every registered structural law on one coloring. Laws whose
    hypotheses fail report applicable=False with the reason."""
    return _verdicts(_Ctx(c, interval))


def check_lemma(name: str, c: Coloring, interval: bool = False) -> LemmaVerdict:
    """One registered law on one coloring; KeyError for an unknown name."""
    return LEMMA_CHECKS[name](_Ctx(c, interval))


# ---------------------------------------------------------------------------
# report


def structure_report(c: Coloring, interval: bool = False) -> dict:
    """JSON-ready structural report for one coloring."""
    ctx = _Ctx(c, interval)
    diag_entries = []
    for k in sorted(ctx.cmap.diagonals):
        d = ctx.cmap.diagonals[k]
        diag_entries.append(
            {
                "k": k,
                "palette": sorted(d.palette),
                "status": "contributing" if d.contributing else "non-contributing",
                "contributed": sorted(d.contributed_colors),
                "extra": sorted(d.extra_colors),
            }
        )
    return {
        "m": c.dims.m,
        "n": c.dims.n,
        "r": c.r,
        "exact": ctx.exact,
        "rainbow_free": ctx.rainbow_free,
        "s_sequence": list(ctx.ss.values),
        "main_palette": sorted(ctx.cmap.main_palette),
        "diagonals": diag_entries,
        "pairs": [
            {
                "kind": p.kind,
                "alpha": [p.alpha.i, p.alpha.j],
                "beta": [p.beta.i, p.beta.j],
                "colors": list(p.colors),
            }
            for p in ctx.pairs
        ],
        "corners": [
            {
                "vertical": [[x.i, x.j] for x in (cr.vertical.alpha, cr.vertical.beta)],
                "horizontal": [[x.i, x.j] for x in (cr.horizontal.alpha, cr.horizontal.beta)],
                "strict_colors": cr.strict_colors,
            }
            for cr in ctx.corners
        ],
        "verdicts": [
            {
                "lemma": v.lemma_id,
                "applicable": v.applicable,
                "holds": v.holds,
                "detail": v.detail,
            }
            for v in _verdicts(ctx)
        ],
    }


def structure_report_json(c: Coloring, interval: bool = False) -> str:
    return json.dumps(structure_report(c, interval), indent=2) + "\n"
