"""JSONL certificate cache behavior."""

import json
import logging

import pytest

from schurgrid.certificates import ENGINE_VERSION, Certificate
from schurgrid.grid import GridDims
from schurgrid.search import exists_rainbow_free
from schurgrid.store import cache_get, cache_put


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "certs.jsonl"
    cert = exists_rainbow_free(GridDims(2, 3), 4)
    cache_put(cert, path)
    got = cache_get(GridDims(2, 3), 4, ENGINE_VERSION, path)
    assert got == cert


def test_cache_miss_on_key_mismatch(tmp_path):
    path = tmp_path / "certs.jsonl"
    cert = exists_rainbow_free(GridDims(2, 3), 4)
    cache_put(cert, path)
    assert cache_get(GridDims(2, 3), 5, ENGINE_VERSION, path) is None
    assert cache_get(GridDims(2, 4), 4, ENGINE_VERSION, path) is None
    # a stale engine version never matches, forcing recomputation
    assert cache_get(GridDims(2, 3), 4, "schurgrid-0.0.9", path) is None


# lines Certificate.from_json rejects; the last four are filed under 2x3, r = 4
_KEY = {"m": 2, "n": 3, "r": 4}
MALFORMED = {
    "not-json": "{not json",
    "list": "[1, 2]",
    "null": "null",
    "empty-cells": json.dumps(
        {"kind": "witness", **_KEY, "cells": [], "nodes": 0, "engine": ENGINE_VERSION}
    ),
    "bogus-kind": json.dumps({"kind": "bogus", **_KEY, "nodes": 0, "engine": ENGINE_VERSION}),
    # a rainbow-free witness but for its cell types
    "float-cells": json.dumps(
        {"kind": "witness", **_KEY, "cells": [[1.0, 1.0, 2.0], [3.0, 1.0, 4.0]], "nodes": 6,
         "engine": ENGINE_VERSION}
    ),
    "bool-cells": json.dumps(
        {"kind": "witness", **_KEY, "cells": [[True, True, 2], [3, True, 4]], "nodes": 6,
         "engine": ENGINE_VERSION}
    ),
}


@pytest.mark.parametrize("line", MALFORMED.values(), ids=MALFORMED.keys())
def test_cache_skips_corrupt_lines(tmp_path, caplog, line):
    path = tmp_path / "certs.jsonl"
    cert = exists_rainbow_free(GridDims(2, 3), 4)
    cache_put(cert, path)
    with open(path, "a") as fh:
        fh.write(line + "\n")
    other = exists_rainbow_free(GridDims(2, 2), 3)
    cache_put(other, path)
    with caplog.at_level(logging.WARNING, logger="schurgrid.store"):
        assert cache_get(GridDims(2, 2), 3, ENGINE_VERSION, path) == other
        # a malformed line never shadows the valid line before it
        assert cache_get(GridDims(2, 3), 4, ENGINE_VERSION, path) == cert
    assert any("corrupt" in rec.message for rec in caplog.records)


def test_cache_skips_lines_without_engine(tmp_path, caplog):
    # a line that names no engine is not filed under the current one
    path = tmp_path / "certs.jsonl"
    cert = exists_rainbow_free(GridDims(2, 3), 6)
    line = cert.to_json().replace(f', "engine": "{ENGINE_VERSION}"', "")
    path.write_text(line + "\n")
    with caplog.at_level(logging.WARNING, logger="schurgrid.store"):
        assert cache_get(GridDims(2, 3), 6, ENGINE_VERSION, path) is None
    assert any("corrupt" in rec.message for rec in caplog.records)


def test_cache_later_lines_win(tmp_path):
    path = tmp_path / "certs.jsonl"
    cert = exists_rainbow_free(GridDims(2, 3), 4)
    cache_put(cert, path)
    assert cache_get(GridDims(2, 3), 4, ENGINE_VERSION, path) == cert
    newer = type(cert)(cert.kind, cert.dims, cert.r, cert.coloring, 999, cert.engine)
    cache_put(newer, path)
    got = cache_get(GridDims(2, 3), 4, ENGINE_VERSION, path)
    assert got.nodes == 999


def test_cache_get_missing_file(tmp_path):
    assert cache_get(GridDims(2, 2), 3, ENGINE_VERSION, tmp_path / "nope.jsonl") is None


def test_cache_get_parses_an_unchanged_file_once(tmp_path, monkeypatch):
    path = tmp_path / "certs.jsonl"
    for r in (4, 5, 6):
        cache_put(exists_rainbow_free(GridDims(2, 3), r), path)
    parsed = []
    from_json = Certificate.from_json

    def counting(text):
        parsed.append(text)
        return from_json(text)

    monkeypatch.setattr(Certificate, "from_json", counting)
    for _ in range(4):
        for r in (4, 5, 6):
            assert cache_get(GridDims(2, 3), r, ENGINE_VERSION, path) is not None
    assert len(parsed) == 3
