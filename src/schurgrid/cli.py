"""Command-line interface.

Exit codes: 0 result matches the closed form (or the command succeeded),
2 falsification or unverifiable certificate, 3 search cut by a budget
before a conclusion, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import Optional

from .analyzer import LEMMA_CHECKS, check_lemma, structure_report_json
from .certificates import ENGINE_VERSION, INTERVAL_ENGINE_VERSION, Certificate
from .coloring import Coloring
from .constructions import (
    closed_form_rb_grid,
    closed_form_rb_interval,
    lower_bound_coloring,
    valuation_coloring,
)
from .grid import GridDims
from .search import (
    BudgetExceeded,
    RbResult,
    SearchBudget,
    enumerate_rainbow_free,
    exists_rainbow_free,
    rb_search,
    rb_search_interval,
)
from .store import cache_get, cache_put

EXIT_OK = 0
EXIT_FALSIFIED = 2
EXIT_INDETERMINATE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least(cast, lowest):
    """argparse type: cast the text, rejecting values below lowest."""

    def parse(text: str):
        value = cast(text)
        if not value >= lowest:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {text}")
        return value

    parse.__name__ = cast.__name__  # names the type in argparse's messages
    return parse


def _budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=_at_least(int, 1), default=1)
    p.add_argument("--max-nodes", type=_at_least(int, 0), default=None)
    p.add_argument("--max-seconds", type=_at_least(float, 0), default=None)


def _budget_of(args: argparse.Namespace) -> SearchBudget:
    return SearchBudget(args.max_nodes, args.max_seconds, args.threads)


def _cache_hooks(args: argparse.Namespace, dims: GridDims, engine: str):
    """(fetch, record, hits) wired to the JSONL cache, or no-op hooks."""
    hits: list[int] = []
    if args.cache is None:
        return None, None, hits
    path = Path(args.cache)

    def fetch(r: int) -> Optional[Certificate]:
        cert = cache_get(dims, r, engine, path)
        if cert is None:
            return None
        if cert.kind == "witness":
            if not cert.verify():
                return None
        elif not args.trust_cache:
            return None
        hits.append(r)
        return cert

    def record(cert: Certificate) -> None:
        # a rerun finds the same certificates; append only what is new
        latest = cache_get(cert.dims, cert.r, cert.engine, path)
        if latest is None or latest.to_json() != cert.to_json():
            cache_put(cert, path)

    return fetch, record, hits


def _rb_result_dict(res: RbResult, closed: int) -> dict:
    return {
        "m": res.dims.m,
        "n": res.dims.n,
        "rb": res.rb_value,
        "closed_form": closed,
        "match": res.rb_value == closed,
        "complete": res.complete,
        "lo": res.lo,
        "hi": res.hi,
        "nodes": res.nodes,
        "prunes": res.prunes,
        "witness": res.witness.to_json_dict() if res.witness else None,
        "exhaustion": res.exhaustion.to_json_dict() if res.exhaustion else None,
    }


def _report_rb(res: RbResult, closed: int, label: str, cache_hits: list[int], args) -> int:
    if args.json:
        print(json.dumps(_rb_result_dict(res, closed)))
    if not res.complete:
        if not args.json:
            print(
                f"indeterminate: budget exhausted with rb in [{res.lo}, {res.hi}] "
                f"after {res.nodes} nodes"
            )
        return EXIT_INDETERMINATE
    if res.rb_value != closed:
        if not args.json:
            print(
                f"FALSIFICATION: search found rb={res.rb_value} "
                f"but the closed form gives {closed}"
            )
        return EXIT_FALSIFIED
    if not args.json:
        cached = " [cached]" if cache_hits else ""
        print(f"rb={res.rb_value} ({label}){cached}")
        if res.witness is not None:
            print(f"witness certificate: {res.witness.to_json()}")
        print(f"exhaustion certificate: {res.exhaustion.to_json()}")
    return EXIT_OK


def cmd_rb(args) -> int:
    """rb-grid, and rb-interval on the 1-by-n carrier (args.m = 1)."""
    dims = GridDims(args.m, args.n)
    if args.interval:
        search, engine = partial(rb_search_interval, dims.n), INTERVAL_ENGINE_VERSION
        closed = closed_form_rb_interval(dims.n)
        label = "convention" if dims.n <= 2 else "matches floor(log2 n)+2"
    else:
        search, engine = partial(rb_search, dims), ENGINE_VERSION
        closed = closed_form_rb_grid(dims)
        label = "convention" if dims.m == 1 else "matches m+n+1"
    fetch, record, hits = _cache_hooks(args, dims, engine)
    res = search(_budget_of(args), fetch, record)
    return _report_rb(res, closed, label, hits, args)


def cmd_witness(args) -> int:
    dims = GridDims(args.m, args.n)
    if not 1 <= args.colors <= dims.cell_count:
        print(
            f"error: --colors must be in [1, {dims.cell_count}]", file=sys.stderr
        )
        return EXIT_USAGE
    try:
        cert = exists_rainbow_free(
            dims, args.colors, _budget_of(args), interval=args.interval
        )
    except BudgetExceeded as exc:
        print(f"indeterminate: {exc}")
        return EXIT_INDETERMINATE
    if cert.kind == "witness":
        sys.stdout.write(cert.coloring.to_text())
    else:
        print("none (exhaustion)")
    print(f"certificate: {cert.to_json()}")
    return EXIT_OK


def cmd_construct(args) -> int:
    if args.which == "lower":
        if args.m < 2:
            print("error: lower construction needs m >= 2", file=sys.stderr)
            return EXIT_USAGE
        c = lower_bound_coloring(GridDims(args.m, args.n), verify=True)
        note = f"exact {c.r}-coloring (m+n), rainbow-free (verified)"
    else:
        if args.m != 1:
            print("error: valuation construction lives on [n]; use --m 1", file=sys.stderr)
            return EXIT_USAGE
        c = valuation_coloring(args.n, verify=True)
        note = f"exact {c.r}-coloring (floor(log2 n)+1), rainbow-free (verified)"
    sys.stdout.write(c.to_text())
    print(note)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    stripped = text.strip()
    try:
        cert = Certificate.from_json(stripped)
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        print(f"unverifiable: cannot parse certificate ({exc})")
        return EXIT_FALSIFIED
    reserialized = cert.to_json()
    if reserialized != stripped:
        print("unverifiable: certificate is not in canonical form")
        print(f"  expected: {reserialized}")
        print(f"  found:    {stripped}")
        return EXIT_FALSIFIED
    if not cert.verify():
        print(f"unverifiable: claim check failed for {reserialized}")
        return EXIT_FALSIFIED
    print(f"verified: {cert.kind} for {cert.dims.m}x{cert.dims.n}, r={cert.r}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cert = Certificate.from_json(text.strip())
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        print(f"unverifiable: cannot parse certificate ({exc})")
        return EXIT_FALSIFIED
    if cert.coloring is None:
        print("unverifiable: exhaustion certificates carry no coloring to analyze")
        return EXIT_FALSIFIED
    if not cert.verify():
        print("unverifiable: certificate failed re-verification")
        return EXIT_FALSIFIED
    print(structure_report_json(cert.coloring, interval=cert.is_interval))
    return EXIT_OK


def cmd_lemma(args) -> int:
    if args.name not in LEMMA_CHECKS:
        known = ", ".join(sorted(LEMMA_CHECKS))
        print(f"error: unknown lemma id {args.name!r} (known: {known})", file=sys.stderr)
        return EXIT_USAGE
    dims = GridDims(args.m, args.n)
    rs = [args.r] if args.r is not None else list(range(1, dims.cell_count + 1))
    checked = 0
    bad: list[Coloring] = []
    for r in rs:
        for c in enumerate_rainbow_free(dims, r, interval=args.interval):
            checked += 1
            verdict = check_lemma(args.name, c, interval=args.interval)
            if verdict.applicable and not verdict.holds:
                bad.append(c)
    print(f"{len(bad)} counterexamples / {checked} colorings checked")
    for c in bad[:10]:
        sys.stdout.write(c.to_text())
    return EXIT_OK if not bad else EXIT_FALSIFIED


def build_parser() -> _Parser:
    parser = _Parser(prog="schurgrid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, what, interval in (
        ("rb-grid", "rainbow number of [m]x[n]", False),
        ("rb-interval", "rainbow number of [n] for a+b=c", True),
    ):
        p = sub.add_parser(name, help=what)
        if interval:
            p.set_defaults(m=1)
        else:
            p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        _budget_flags(p)
        p.add_argument("--cache", metavar="PATH", default=None)
        p.add_argument("--trust-cache", action="store_true")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=cmd_rb, interval=interval)

    p = sub.add_parser("witness", help="find one rainbow-free exact coloring")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--interval", action="store_true")
    _budget_flags(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("construct", help="emit a named closed-form coloring")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--which", choices=["lower", "valuation"], default="lower")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="re-check a certificate file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="structure report for a witness certificate")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lemma", help="exhaustively check one structural lemma")
    p.add_argument("--name", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--interval", action="store_true")
    p.set_defaults(func=cmd_lemma)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
