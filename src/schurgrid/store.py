"""Append-only JSONL certificate cache.

One certificate per line, keyed by (m, n, r, engine). Later lines win.
Writers take an advisory lock so concurrent CLI runs do not interleave
partial lines. Certificate.from_json raises ValueError for every malformed
line; readers log it and skip the line instead of dying.
A file is parsed once per state (inode, size, mtime), so an append by
this or another process forces a re-read and nothing else does.
"""

from __future__ import annotations

import fcntl
import logging
from functools import lru_cache
from pathlib import Path
from typing import Optional

from .certificates import Certificate
from .grid import GridDims

log = logging.getLogger(__name__)

_Key = tuple[int, int, int, str]


def _load(path: Path) -> dict[_Key, Certificate]:
    path = path.expanduser()
    try:
        st = path.stat()
    except FileNotFoundError:
        return {}
    # stat before reading: a line appended in between only forces one more parse
    return _parse(path, (st.st_ino, st.st_size, st.st_mtime_ns))


@lru_cache(maxsize=1)
def _parse(path: Path, stamp: tuple[int, int, int]) -> dict[_Key, Certificate]:
    out: dict[_Key, Certificate] = {}
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError:
        return out
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            cert = Certificate.from_json(line)
        except ValueError as exc:
            log.warning("skipping corrupt cache line %s:%d (%s)", path, lineno, exc)
            continue
        out[(cert.dims.m, cert.dims.n, cert.r, cert.engine)] = cert
    return out


def cache_get(dims: GridDims, r: int, engine: str, path: Path) -> Optional[Certificate]:
    """The latest certificate for the key, or None. Later lookups in the same
    file state get the same instance, so callers must not mutate it."""
    return _load(path).get((dims.m, dims.n, r, engine))


def cache_put(cert: Certificate, path: Path) -> None:
    path = path.expanduser()
    path.parent.mkdir(parents=True, exist_ok=True)
    line = cert.to_json() + "\n"
    with open(path, "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            fh.write(line)
            fh.flush()
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)
