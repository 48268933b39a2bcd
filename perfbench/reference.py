"""A fixed numpy loop, timed next to every op to gauge the host's current speed.

On a shared host the same code runs up to about 1.8x slower for stretches
of seconds to minutes, whenever other tenants load the core's neighbours.
Raw op latencies then depend on when a run happened more than on the code.
The loop below does the kind of work dabss does (2x2 eigendecompositions,
matrix exponentials, complex solves, small frozen dataclasses), so it slows
down by the same factor: on design-sweep, over ten-second windows, raw op
latency varied by 0.3 (interquartile range over median) while op latency
divided by the loop's time varied by 0.03. The benchmark reports each op's
latency rescaled to a host on which the loop takes `NOMINAL_S`.

A cold `python -m dabss.cli` command is mostly interpreter start, imports
and page faults, which the in-process loop does not track (normalised by
it, cli latency spread more than raw). Those ops are normalised by
`cold_seconds`: a fresh interpreter that imports numpy and runs the loop
`COLD_LOOPS` times. Over twenty-second windows on cli, raw latency varied by
0.16 and latency over the cold reading by 0.02. The set-up cold starts are
normalised by the same cold reading.

The loop imports nothing from dabss and never changes with it, so a change
to dabss moves only the op side of the ratio.

    python3 perfbench/reference.py     # one cold reading's work
"""

from __future__ import annotations

import cmath
import dataclasses
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SCRIPT = str(Path(__file__).resolve())
NOMINAL_S = 1e-3        # the loop's time on the reference host; about its time here unloaded
COLD_NOMINAL_S = 0.2    # the cold reading's time on the same host
REPEATS = 3             # loop runs per in-process reading; the reading is their median
COLD_LOOPS = 40
STEPS = 16

_A = np.array([[-0.9, 0.4], [-0.3, -0.7]])
_B = np.array([1.0, 2.0])


@dataclasses.dataclass(frozen=True)
class _Row:
    rho: float
    h: complex


def loop() -> list[_Row]:
    rows = []
    for i in range(STEPS):
        w, v = np.linalg.eig(_A * (1.0 + 1e-3 * i))
        e = (v * np.exp(w)) @ np.linalg.inv(v)
        z = cmath.exp(2j * cmath.pi * i / STEPS)
        h = np.linalg.solve(z * np.eye(2) - e, _B)
        rows.append(_Row(float(np.max(np.abs(np.linalg.eigvals(e)))), complex(h[0])))
    return rows


def seconds() -> float:
    """The loop's current time on this host: the median of `REPEATS` runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cold_seconds(env: dict) -> float:
    """Spawn-to-exit time of a fresh interpreter that imports numpy and runs the loop."""
    start = time.perf_counter()
    subprocess.run([sys.executable, SCRIPT], env=env, check=True)
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in range(COLD_LOOPS):
        loop()
