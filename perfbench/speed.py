"""Wall times rescaled to a reference machine speed.

A shared virtual machine does not run at one speed: the same fixed loop can
take up to twice as long in one spell of seconds or minutes as in the next,
in CPU time as much as in wall time, so the spread between runs of the same
code is the machine's, not the program's. To take that out, a fixed
calibration loop that does not touch schurgrid runs every TICK_S seconds
during a pass, from a SIGALRM handler (so it also runs in the middle of a
long search call), and the time it takes is left out of the pass. Each
piece of the pass between two calibrations is multiplied by REFERENCE_S
over the mean of the calibrations at its two ends. A program that does more
work still takes proportionally longer; a machine that runs slower for a
while no longer shows.

The raw wall times are kept beside the rescaled ones in every record.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

# The calibration loop's typical time on a 2-core 2.1 GHz Xeon VM under
# Python 3.11, so rescaled times read as seconds on that machine.
REFERENCE_S = 0.0075
TICK_S = 0.2

_DOC = json.dumps({"kind": "witness", "dims": [6, 7], "r": 13, "cells": list(range(42))})


def calibrate() -> float:
    """Seconds for one run of a fixed mix of interpreter work: integer
    arithmetic, dict traffic and JSON parsing, the kinds of work the
    workloads spend their time on."""
    t0 = time.perf_counter()
    acc = 0
    seen: dict[int, int] = {}
    for i in range(30000):
        acc += (i * i) % 7
        seen[i & 255] = acc
    for _ in range(300):
        acc += len(json.loads(_DOC)["cells"])
    return time.perf_counter() - t0


def calibrate3() -> float:
    """Median of three calibrations, for a single short timed span."""
    return statistics.median(calibrate() for _ in range(3))


class Clock:
    """Times one pass. ``raw_s`` is its wall time without the calibrations,
    ``scaled_s`` the same rescaled piece by piece to the reference speed.
    With tick_s set, a calibration runs every tick_s seconds of the pass;
    without, only at its start and end."""

    def __init__(self, tick_s: float | None = TICK_S):
        self.tick_s = tick_s
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.calibrations = 0
        self._busy = False

    def __enter__(self) -> "Clock":
        self._before = calibrate()
        if self.tick_s:
            self._old = signal.signal(signal.SIGALRM, self._on_tick)
            signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.tick_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        self._checkpoint()

    def _on_tick(self, signum, frame) -> None:
        if not self._busy:  # a tick that arrives during a calibration is dropped
            self._checkpoint()

    def _checkpoint(self) -> None:
        self._busy = True
        elapsed = time.perf_counter() - self._t0
        after = calibrate()
        self.calibrations += 1
        self.raw_s += elapsed
        self.scaled_s += elapsed * REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        self._t0 = time.perf_counter()
        self._busy = False
