"""Persisted, independently re-verifiable search results.

JSON schema (field order is fixed and byte-stable):
  { "kind": "witness"|"exhaustion", "m": int, "n": int, "r": int,
    "cells": [[int, ...], ...] (witness only), "nodes": int, "engine": str }

The engine string doubles as the equation-domain marker: certificates about
the interval [n] (Schur triples a + b = c) carry an "-interval" suffix and
are re-verified against interval solutions; plain certificates use the
component-wise grid equation. Witnesses an rb scan takes from the paper's
constructions instead of a search carry CONSTRUCTION_ENGINE (with the same
suffix on [n]) and nodes = 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .coloring import Coloring, is_exact
from .grid import GridDims
from .solutions import index_for, is_rainbow_free

ENGINE_VERSION = "schurgrid-0.3.0"
INTERVAL_ENGINE_VERSION = ENGINE_VERSION + "-interval"
CONSTRUCTION_ENGINE = "schurgrid-construction"


@dataclass
class Certificate:
    kind: str  # "witness" | "exhaustion"
    dims: GridDims
    r: int
    coloring: Optional[Coloring]
    nodes: int
    engine: str = ENGINE_VERSION

    @property
    def is_interval(self) -> bool:
        return self.engine.endswith("-interval")

    def to_json_dict(self) -> dict:
        out: dict = {
            "kind": self.kind,
            "m": self.dims.m,
            "n": self.dims.n,
            "r": self.r,
        }
        if self.kind == "witness" and self.coloring is not None:
            out["cells"] = self.coloring.rows()
        out["nodes"] = self.nodes
        out["engine"] = self.engine
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        """Parse one certificate line. Every malformed line raises ValueError
        (the cache skips it; verify and analyze exit 2), a line with no
        engine too: it cannot say which search made it."""
        obj = json.loads(text)  # a JSONDecodeError is a ValueError
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
        if obj.get("kind") not in ("witness", "exhaustion"):
            raise ValueError(f"unknown kind {obj.get('kind')!r}")
        try:
            m, n, r, nodes, engine = (obj[k] for k in ("m", "n", "r", "nodes", "engine"))
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from None
        if not all(type(v) is int for v in (m, n, r, nodes)):
            raise ValueError(f"m, n, r and nodes must be integers, got {[m, n, r, nodes]}")
        try:
            coloring = Coloring.from_rows(obj["cells"], r) if "cells" in obj else None
        except (LookupError, TypeError) as exc:  # cells that are not rows of numbers
            raise ValueError(f"cells are not a coloring ({type(exc).__name__}: {exc})") from None
        if coloring is not None and set(map(type, coloring.cells)) != {int}:
            # 1.0 and true compare equal to colors but are not ones
            bad = next(c for c in coloring.cells if type(c) is not int)
            raise ValueError(f"cells must be integers, got {bad!r}")
        return cls(obj["kind"], GridDims(m, n), r, coloring, nodes, str(engine))

    def verify(self) -> bool:
        """Re-check the claim. Witnesses are re-verified from scratch
        (exact and rainbow-free); exhaustion claims are checked for
        structural consistency only (re-deriving them means re-searching).
        """
        if self.kind not in ("witness", "exhaustion"):
            return False
        cap = self.dims.cell_count
        if self.kind == "exhaustion":
            return self.coloring is None and 1 <= self.r <= cap + 1
        if self.coloring is None or self.coloring.dims != self.dims:
            return False
        if self.coloring.r != self.r or not 1 <= self.r <= cap:
            return False
        if not is_exact(self.coloring):
            return False
        if self.is_interval and self.dims.m != 1:
            return False
        return is_rainbow_free(self.coloring, index_for(self.dims, self.is_interval))
