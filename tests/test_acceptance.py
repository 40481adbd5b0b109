"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The printed lines bypass pytest's capture so the gate summary is visible
in a plain `pytest -v` run.
"""

import time

import numpy as np
import pytest

from schurgrid.analyzer import check_lemma, delta_sets
from schurgrid.certificates import Certificate
from schurgrid.constructions import (
    closed_form_rb_interval,
    lower_bound_coloring,
    two_adic_valuation,
    valuation_coloring,
)
from schurgrid.grid import (
    GridDims,
    GridPoint,
    covered_diagonals,
    detect_jump,
    diagonal_cells,
    diagonal_index,
    landing_diff,
    landing_sum,
)
from schurgrid.search import (
    enumerate_rainbow_free,
    exists_rainbow_free,
    naive_oracle,
    rb_search,
    rb_search_interval,
)
from schurgrid.solutions import grid_index, interval_index, is_rainbow_free


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, msg: str) -> None:
        with capsys.disabled():
            print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {msg}")

    return _report


REQUIRED_GRIDS = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]
STRETCH_GRIDS = {(2, 7): 10, (2, 8): 11, (3, 5): 9, (4, 4): 9}


def test_criterion_01_grid_rainbow_numbers(report):
    failures = []
    for m, n in REQUIRED_GRIDS:
        start = time.monotonic()
        res = rb_search(GridDims(m, n))
        elapsed = time.monotonic() - start
        if res.rb_value != m + n + 1 or elapsed > 300:
            failures.append((m, n, res.rb_value, elapsed))
    for (m, n), want in STRETCH_GRIDS.items():
        res = rb_search(GridDims(m, n))
        if res.rb_value != want:
            failures.append((m, n, res.rb_value, None))
    ok = not failures
    report(1, ok, "rb([m]x[n]) = m+n+1 on the required and stretch sets")
    assert ok, failures


def test_criterion_02_interval_rainbow_numbers(report):
    start = time.monotonic()
    mismatches = [
        (n, rb_search_interval(n).rb_value)
        for n in range(3, 21)
        if rb_search_interval(n).rb_value != closed_form_rb_interval(n)
    ]
    search_time = time.monotonic() - start

    # Valuation colorings for every n <= 10^4. Each coloring for n is the
    # length-n prefix of the one for N = 10^4, and the solution triples of
    # [n] are a subset of those of [N], so one rainbow-free check at N
    # covers every prefix. The per-n color count is checked vectorized:
    # the running palette of the prefix must be exactly {1..bit_length(n)}.
    start = time.monotonic()
    big = 10**4
    c = valuation_coloring(big)
    val_ok = is_rainbow_free(c, interval_index(big))
    vals = np.array([two_adic_valuation(x) + 1 for x in range(1, big + 1)])
    bitlen = np.array([n.bit_length() for n in range(1, big + 1)])
    val_ok = val_ok and bool(np.all(np.maximum.accumulate(vals) == bitlen))
    # colors below the running max are all present: color k first appears
    # at position 2^(k-1), which is <= any n with bit_length >= k
    val_ok = val_ok and all(
        valuation_coloring(n, verify=True).r == n.bit_length() for n in range(1, 65)
    )
    val_time = time.monotonic() - start

    ok = not mismatches and search_time <= 600 and val_ok and val_time <= 10
    report(2, ok, "rb([n]) matches floor(log2 n)+2 and valuation colorings are rainbow-free")
    assert ok, (mismatches, search_time, val_ok, val_time)


def test_criterion_03_lower_bound_construction(report):
    start = time.monotonic()
    failures = []
    for m in range(2, 51):
        for n in range(m, 51):
            d = GridDims(m, n)
            c = lower_bound_coloring(d, verify=False)
            idx = grid_index(d.m, d.n)
            if c.r != m + n or len(set(c.cells)) != m + n:
                failures.append((m, n, "not exact with m+n colors"))
                continue
            if not is_rainbow_free(c, idx):
                failures.append((m, n, "rainbow triple found"))
            corner_flats = np.array([d.flat(GridPoint(1, n)), d.flat(GridPoint(m, 1))])
            touched = np.concatenate(idx.arrays()[:3])
            if np.isin(corner_flats, touched).any():
                failures.append((m, n, "corner cell appears in a solution"))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed <= 30
    report(3, ok, f"lower-bound colorings valid for all 2<=m<=n<=50 ({elapsed:.1f}s)")
    assert ok, (failures[:5], elapsed)


def test_criterion_04_sum_diagonal_arithmetic(report):
    start = time.monotonic()
    violations = 0
    for m in range(1, 11):
        for n in range(m, 11):
            d = GridDims(m, n)
            pts = list(d.cells())
            for p in pts:
                a = diagonal_index(p, d)
                for q in pts:
                    b = diagonal_index(q, d)
                    if d.contains(p + q) and diagonal_index(p + q, d) != landing_sum(a, b, d):
                        violations += 1
                    if d.contains(p - q) and diagonal_index(p - q, d) != landing_diff(a, b, d):
                        violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed <= 10
    report(4, ok, f"landing indices exact for all pairs, m,n <= 10 ({elapsed:.1f}s)")
    assert ok, (violations, elapsed)


def test_criterion_05_jump_cover(report):
    neither = 0
    for m in range(1, 11):
        for n in range(m, 11):
            d = GridDims(m, n)
            pts = list(d.cells())
            for alpha in pts:
                for beta in pts:
                    if detect_jump(alpha, beta) is None:
                        continue
                    for k in covered_diagonals(alpha, beta, d):
                        for gamma in diagonal_cells(k, d):
                            if (
                                detect_jump(alpha, gamma) is None
                                and detect_jump(gamma, beta) is None
                            ):
                                neither += 1
    ok = neither == 0
    report(5, ok, "every covered diagonal cell receives or makes a jump, m,n <= 10")
    assert ok, neither


def test_criterion_06_rainbow_free_structure(report):
    bad = []
    checked = 0
    for m, n in [(3, 3), (2, 4)]:
        d = GridDims(m, n)
        for r in range(1, 7):
            for c in enumerate_rainbow_free(d, r):
                checked += 1
                for name in ("one-extra-color", "no-disjoint-corners"):
                    v = check_lemma(name, c)
                    if v.applicable and not v.holds:
                        bad.append((m, n, r, name, c.cells))
    ok = not bad
    report(6, ok, f"diagonal palettes and corners lawful over {checked} rainbow-free colorings")
    assert ok, bad[:5]


def test_criterion_07_s_sequence_laws(report):
    bad = []
    checked = 0
    for n in range(1, 13):
        d = GridDims(1, n)
        for r in range(1, n + 1):
            for c in enumerate_rainbow_free(d, r, interval=True):
                checked += 1
                for name in ("s-doubling", "s2-power-bound"):
                    v = check_lemma(name, c, interval=True)
                    if v.applicable and not v.holds:
                        bad.append((n, r, name, c.cells))
    ok = not bad
    report(7, ok, f"s-sequence laws hold over {checked} rainbow-free interval colorings")
    assert ok, bad[:5]


def test_criterion_08_oracle_equivalence(report):
    disagreements = []
    for m in range(1, 11):
        for n in range(m, 11):
            if m * n > 10:
                continue
            d = GridDims(m, n)
            for r in range(1, d.cell_count + 1):
                fast = exists_rainbow_free(d, r).kind
                slow = naive_oracle(d, r).kind
                if fast != slow:
                    disagreements.append((m, n, r, fast, slow))
    ok = not disagreements
    report(8, ok, "pruned search agrees with the naive oracle for all m*n <= 10")
    assert ok, disagreements


def test_criterion_09_exhaustion_certificates(report):
    failures = []
    for m, n in REQUIRED_GRIDS:
        d = GridDims(m, n)
        cert = exists_rainbow_free(d, m + n + 1)
        if cert.kind != "exhaustion":
            failures.append((m, n, cert.kind))
            continue
        again = Certificate.from_json(cert.to_json())
        if not again.verify() or again != cert:
            failures.append((m, n, "reload failed verification"))
    ok = not failures
    report(9, ok, "exhaustion certificates at r = m+n+1 produced and re-verified")
    assert ok, failures


def test_criterion_10_delta_diagonal_count(report):
    # The claim is false as stated: the corner-block counting behind it
    # needs 2*d1 <= m and 2*d2 <= n. Outside that range whole rows or
    # columns can shift by neither +delta nor -delta, so the translatable
    # diagonals can vanish while the bound stays positive. Smallest
    # counterexample: 3x4 grid, delta=(2,1), bound 1, actual 0. The sweep
    # is kept faithful to the stated criterion and reports the boundary.
    violations = []
    in_corner_block_range = 0
    for m in range(1, 13):
        for n in range(m, 13):
            d = GridDims(m, n)
            for delta in d.cells():
                ds = delta_sets(delta, d)
                if not ds.count_lower_bound_holds(d):
                    violations.append((m, n, (delta.i, delta.j), len(ds.dd)))
                    if 2 * delta.i <= m and 2 * delta.j <= n:
                        in_corner_block_range += 1
    ok = not violations
    report(
        10,
        ok,
        f"translatable-diagonal count bound, all deltas m,n <= 12: "
        f"{len(violations)} violations, all with 2*d1 > m or 2*d2 > n"
        if violations and in_corner_block_range == 0
        else "translatable-diagonal count >= m+n-2d1-2d2 for all deltas, m,n <= 12",
    )
    assert ok, (
        f"{len(violations)} violations (first 5: {violations[:5]}); "
        f"{in_corner_block_range} inside the 2*d1<=m, 2*d2<=n range where "
        f"the counting argument is sound"
    )
