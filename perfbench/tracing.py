"""In-memory spans recorded around calls into schurgrid, and their self times.

A span is a dict with an id, a name (``module.function``), start and end
(``time.perf_counter`` seconds), the parent span's id and the run id shared
by every span of one run. Spans are kept in memory and written out once,
when the run ends, so the timed code never touches the disk for tracing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional


class _Span:
    __slots__ = ("tracer", "name", "attrs", "rec")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> dict:
        t = self.tracer
        self.rec = {
            "id": len(t.spans),
            "name": self.name,
            "parent": t._stack[-1] if t._stack else None,
            "run": t.run_id,
            "start": time.perf_counter(),
            "end": None,
            **self.attrs,
        }
        t.spans.append(self.rec)
        t._stack.append(self.rec["id"])
        return self.rec

    def __exit__(self, *exc) -> None:
        self.rec["end"] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Records spans. ``span`` nests by the dynamic call structure; ``add``
    records a span whose start and end were taken elsewhere (for instance
    from a progress hook), as a child of the innermost open span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "start": start,
                "end": end,
                **attrs,
            }
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class _NullSpan:
    __slots__ = ("rec",)

    def __init__(self):
        self.rec: dict = {}

    def __enter__(self) -> dict:
        return self.rec

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """Tracing off: the same interface, recording nothing."""

    def __init__(self):
        self._span = _NullSpan()

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._span

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        return None


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children: dict[Optional[int], list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, cursor), min(b, s["end"])
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def descendants(spans: list[dict], root_id: int) -> list[dict]:
    """Every span below root_id (not including it)."""
    below = {root_id}
    out = []
    for s in spans:  # parents are always recorded before their children
        if s["parent"] in below:
            below.add(s["id"])
            out.append(s)
    return out
